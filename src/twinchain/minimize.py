"""Damped Newton relaxation of chain energies with analytic derivatives.

The density D = B_1 B_2 at a summand depends on four difference vectors
W = (v+, v-, h+, h-).  Its brackets are B_k = |f_k|^2, f_k = f - alpha_k,
over the eight inner terms f = [|v+|^2, |v-|^2, |h+|^2, |h-|^2, v_s . h_t].
The derivatives work in each center's reduced variables

    z = (y_p, y_m[, theta_m, theta_c, theta_p]),  y_p = (u_p - u_c)/lam,
                                                  y_m = (u_m - u_c)/lam,

4 with fixed tau and 7 with variable tau.  W is affine in y, and in each
extension vector t_s = R(theta_s) tau with a coefficient affine in the row
j, so df/dz is linear in the node features phi = [W, D, j D], D[b, s] =
W_b . t'_s: one product Phi = phi @ T with a table built at import.  With
psi_k = Phi^T f_k and d = 2 (B_2 f_1 + B_1 f_2), summed over the row rule's
nodes,

    dD/dz   = sum_m d_m df_m/dz
    d2D/dz2 = 2 (B_1 + B_2) Phi^T Phi + 4 (psi_1 psi_2^T + psi_2 psi_1^T)
              + sum_m d_m d2f_m/dz2,

the first term one batched product over the (8 x nodes) rows of each
center.  The first two terms are summed as P + P^T from their halves P, so
the Hessian is symmetric bit for bit.  The last is a few scalars linear in the j-moments of d, times the
constant y blocks, t'_s or t_s . t_r, less the rotating frame's
d2t/dtheta2 = -t on the theta diagonal.  The gradient takes dD/dW in closed
form from the 2x2 blocks of d and its j-moments A_k: A_0 through dW/dy, and
G_s . t'_s with G = Pi A_0 + Omega A_1 for theta_s.  dz/dx = Z is a constant
of the problem, so a center adds g_z Z to the gradient and Z^T H_z Z, one
product with kron(Z, Z), to the Hessian; no Jacobian is built per call.

Since W is affine in the row j, every row sum above (the energy, dD/dz and
the j-moments of d up to degree 2) is a polynomial of degree <= 8 in j.  A
5-node Gauss rule for the rows (`energy.row_rule`) is exact to degree 9, so
the stencil is evaluated at five nodes per center, and energy, gradient and
Hessian cost O(n) for an n-row window; fixed tau with zero slopes takes one
node.  The energy is `energy.rule_total`, the sum of every chain-variable
total.  Each triangle determinant of the orientation check is quadratic
in j, so it is evaluated only at the end rows and next to its vertex.

A problem evaluates each x once.  It keeps one record, of the last x it
was asked about: a copy of x, the node stencil W and t, the brackets and
the energy.  A gradient at that x adds f_k, d and G; a Hessian there adds
only Phi, d2D/dz2 and the blocks.  So a Newton iteration, whose accepted
trial's energy, gradient and next Hessian share one x, builds the stencil
and the brackets once.  A stage drops what no later stage reads.  Any
other x, compared by value so that an x changed in place is never stale,
replaces the record; the old one is released first.  Where the centers'
entries land in the gradient and in the Hessian's blocks is indexed once
per problem (`_scatter`).

Atoms couple only within distance 2 along the chain, so on the interleaved
free variables (ux, uy[, theta]), nd per atom, the Hessian has 3*nd - 1
superdiagonals.  In blocks of s = 3*nd - 1 dofs it is block tridiagonal:
each stencil's upper triangle is scattered straight into the diagonal
blocks D and the superdiagonal blocks U.  Each Newton step solves (D, U) by
block cyclic reduction with numpy's batched Cholesky, under the least
Levenberg shift of the ladder 0, 1e-8, 1e-7, ..., 1e12 at which every pivot
factors.  Positive definiteness is monotone in the shift, so after mu = 0
fails a bisection over the ladder finds that shift in at most five more
factorizations.  Steps are Armijo-backtracked on the energy and rejected
(halved) whenever the trial configuration loses admissibility.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .energy import SLOT_OFFSETS, brackets, row_rule, rule_total, slot_stencil
from .lattice import (
    ORIENTATION_TOL,
    ChainState,
    cross2,
    piecewise_chain,
)
from .wells import WellPair, boundary_gradient

__all__ = [
    "MinimizeOptions",
    "MinimizationReport",
    "ChainProblem",
    "twin_chain",
    "laminate_chain",
    "preoptimize_middle",
    "newton_minimize",
]

# The eight inner terms are f_m = W_a . W_b over the stencil vectors W = [v+,
# v-, h+, h-]: the squared lengths, then v_s . h_t for (s, t) = ++, +-, -+, --.
# _KS[m] is d2 f_m / dW_a dW_b over the four vectors (over the eight components
# it is kron(_KS[m], I2)), in the order of f in `_bracket_parts`
_PAIRS = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3)]
_E = np.eye(4)
_KS = np.array([np.outer(_E[a], _E[b]) + np.outer(_E[b], _E[a]) for a, b in _PAIRS])

# per-slot weights over the W vectors; rows are the slots m = atom i-1,
# c = atom i, p = atom i+1: dW_a/dtheta_s = (_PI[s, a] + j _OMEGA[s, a]) t'_s
_OMEGA = np.array([[0.0, 1.0, 0.0, 1.0],
                   [-1.0, -1.0, -1.0, -1.0],
                   [1.0, 0.0, 1.0, 0.0]])
_PI = np.array([[0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0]])
# dW_a/dy for the reduced variables y_p (moves v+ and h+) and y_m (v- and h-)
_EY = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


def _phi_table():
    """T with df/dz = phi @ T over the node features phi = [W, D, j D], D[b, s] =
    W_b . t'_s: df_m/dz = sum_ab _KS[m, a, b] W_b . dW_a/dz, so W fixes the y
    columns and D, j D the theta columns.  Rows: the 8 + 12 + 12 features;
    columns (m, z) over z = (y_p, y_m, theta_m, theta_c, theta_p)."""
    T = np.zeros((32, 8, 7))
    T[:8, :, :4] = np.einsum("mbk,cd->bcmkd", _KS @ _EY, np.eye(2)).reshape(8, 8, 4)
    for rows, c in ((slice(8, 20), _PI.T), (slice(20, 32), _OMEGA.T)):
        T[rows, :, 4:] = np.einsum("mbs,st->bsmt", _KS @ c, np.eye(3)).reshape(12, 8, 3)
    return T


def _curvature_table():
    """Coefficients of sum_m d_m d2f_m/dz2 over the j-moments d_k of d, rows
    (k, m): the y-y block, kron'd with I2 (16, k = 0 only), the y-theta
    scalars (6, times t'_s) and the theta-theta scalars (9, times t_s . t_r)."""
    T = np.zeros((3, 8, 31))
    c = (_PI.T, _OMEGA.T)
    T[0, :, :16] = np.array([np.kron(_EY.T @ k @ _EY, np.eye(2)) for k in _KS]).reshape(8, 16)
    for k in (0, 1):
        T[k, :, 16:22] = (_EY.T @ _KS @ c[k]).reshape(8, 6)
    for k in (0, 1):
        for l in (0, 1):
            T[k + l, :, 22:] += (c[k].T @ _KS @ c[l]).reshape(8, 9)
    return T.reshape(24, 31)


# the tables for variable tau, and their W rows and y columns for fixed tau
_PHI_T = _phi_table().reshape(32, 56)
_PHI_T_FIXED = _PHI_T.reshape(32, 8, 7)[:8, :, :4].reshape(8, 32)
_CURV_T = _curvature_table()
_CURV_T_FIXED = np.ascontiguousarray(_CURV_T[:8, :16])

# Armijo constant and backtracking factor
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
# the Levenberg shift ladder: 0, 1e-8, then tenfold up to 1e12
_SHIFTS = [0.0, 1e-8]
while _SHIFTS[-1] * 10.0 <= 1e12:
    _SHIFTS.append(_SHIFTS[-1] * 10.0)
# a trial energy this close (relative) to the current one is rounding noise;
# near the minimum the predicted Armijo decrease falls below one ulp of E
_ENERGY_RTOL = 16.0 * np.finfo(float).eps
# gradient stop relative to |g_0|: an absolute one sits below the |g| floor at large n
_GRAD_RTOL = 1e-10


@dataclass(frozen=True)
class MinimizeOptions:
    variable_tau: bool = False
    max_iters: int = 500


@dataclass
class MinimizationReport:
    final_chain: ChainState
    iterations: int
    grad_norm_history: np.ndarray
    energy_history: np.ndarray
    converged: bool
    admissibility_violations: int
    stop_reason: str


class ChainProblem:
    """Energy, gradient and block tridiagonal Hessian over a chosen set of free atoms.

    The window (i_lo..i_hi) x (j_lo..j_hi) selects which summands count;
    `scale` multiplies the raw density sum (lam^2 for physical chains, a row
    average like 1/n for rescaled layer problems).  Admissibility checks the
    lattice triangles that touch a free atom, on the same stencil.  Energy,
    gradient and Hessian all evaluate the window's centers.  A problem keeps
    the evaluation record of the last x it was asked about (`_at`), so one
    problem serves one thread.
    """

    def __init__(self, chain: ChainState, *, variable_tau=False, free_ids=None,
                 i_window=None, j_window=None, scale=None):
        n = chain.n
        self.template = chain
        self.variable_tau = bool(variable_tau)
        self.nd = 3 if variable_tau else 2
        self.free_ids = (np.arange(-n + 1, n) if free_ids is None
                         else np.asarray(sorted(free_ids), dtype=int))
        if self.free_ids.size == 0:
            raise ValueError("no free atoms")
        if np.any(np.diff(self.free_ids) == 0):
            raise ValueError("free atoms must not repeat")
        if np.abs(self.free_ids).max() >= n:
            raise ValueError("free atoms must be interior columns")
        self.i_lo, self.i_hi = i_window if i_window is not None else (-n, n)
        self.j_lo, self.j_hi = j_window if j_window is not None else (-n, n)
        self.scale = float(chain.lam ** 2 if scale is None else scale)
        self.centers = np.arange(self.i_lo, self.i_hi + 1)
        self._slots = self._frozen_slots(self.centers)
        # fixed tau keeps the template's slopes: all zero, one node carries every row
        flat = not variable_tau and not self._stencil(self.pack(chain), self._slots)[1].any()
        self.nodes, self.weights = row_rule(self.j_lo, self.j_hi, flat)
        # per center and stencil variable (ux, uy[, theta] slot by slot): the
        # global dof, or -1 for a clamped or frozen atom
        first = np.searchsorted(self.free_ids, self.centers + SLOT_OFFSETS).T[..., None] * self.nd
        self._dofs = np.where(self._slots[1].T[..., None], first + np.arange(self.nd),
                              -1).reshape(self.centers.size, -1)
        self._index = None  # `_scatter`'s indices, built on first use
        # dz/dx from the stencil variables to the reduced ones, y_p = (u_p -
        # u_c)/lam, y_m = (u_m - u_c)/lam[, theta_m, theta_c, theta_p], and
        # kron(Z, Z), which takes a flat d2D/dz2 to the flat d2D/dx2
        Z = np.zeros((4 + 3 * self.variable_tau, 3, self.nd))
        for k, slot in enumerate((2, 0)):
            Z[2 * k:2 * k + 2, slot, :2] = np.eye(2) / chain.lam
            Z[2 * k:2 * k + 2, 1, :2] = -np.eye(2) / chain.lam
        if variable_tau:
            Z[4:, :, 2] = np.eye(3)
        self._z = Z.reshape(len(Z), -1)
        self._zz = np.kron(self._z, self._z)
        # lattice cell (c, j) spans atoms c..c+2 in rows j, j+1: the stencil of
        # center c+1.  Only cells with a free atom can change during a solve
        mid = np.arange(-n - 1, n + 2)
        self._adm_slots = self._frozen_slots(
            mid[np.isin(mid + SLOT_OFFSETS, self.free_ids).any(axis=0)])
        self._adm_rows = (-n - 1, n)
        self._last = None  # the evaluation record of the last x (`_at`)

    # -- state plumbing ----------------------------------------------------

    @property
    def ndof(self):
        return self.free_ids.size * self.nd

    def pack(self, chain: ChainState):
        idx = chain.geometry.atom_index(self.free_ids)
        return np.column_stack([chain.u[idx], chain.theta[idx]])[:, :self.nd].ravel()

    def apply(self, x) -> ChainState:
        """The validated chain with the free atoms at x."""
        state = np.column_stack([self.template.u, self.template.theta])
        state[self.template.geometry.atom_index(self.free_ids), :self.nd] = np.reshape(
            x, (-1, self.nd))
        return self.template.with_arrays(u=state[:, :2], theta=state[:, 2])

    def _frozen_slots(self, centers):
        """Template (ux, uy, theta) at the slots of `centers`, the free mask, its rows of x."""
        atoms = centers + SLOT_OFFSETS
        u, theta = self.template.atoms_at(atoms)
        free = np.isin(atoms, self.free_ids)
        return np.dstack([u, theta]), free, np.searchsorted(self.free_ids, atoms[free])

    def _stencil(self, x, slots):
        """`slot_stencil` of the frozen slot atoms with the free ones at x; the
        free atoms are interior (`__init__`), so the frozen clamps stay valid."""
        state, free, rows = slots
        state = state.copy()
        state[free, :self.nd] = np.reshape(x, (-1, self.nd))[rows]
        return slot_stencil(state[..., :2], state[..., 2], self.template.lam,
                            self.template.wells)

    def _node_stencil(self, x):
        """The stencil W on the row rule's nodes, (centers, nodes, 4, 2), and t."""
        base, slope, t = self._stencil(x, self._slots)
        return base[:, None] + self.nodes[:, None, None] * slope[:, None], t

    def admissible(self, x) -> bool:
        """Orientation of every lattice triangle that touches a free atom.

        At center i, row j the cell's corner differences are lam h-, lam v+
        and lam t (slot c), so its four triangle determinants are those of
        `lattice.check_admissible` in the same units.  v+ and h- are affine in
        j and t is not, so each determinant is a quadratic c0 + c1 j + c2 j^2
        whose minimum over the stored rows lies at an end row or at the floor
        or ceiling of its vertex; only those rows are evaluated.
        """
        base, slope, t = self._stencil(x, self._adm_slots)
        # (constant, slope) pairs of each vector, stacked on a leading axis
        v = np.stack([base[:, 0], slope[:, 0]])
        h = np.stack([base[:, 3], slope[:, 3]])
        t = np.stack([t[:, 1], np.zeros_like(t[:, 1])])
        c0, c1, c2 = np.stack([_cross_quadratic(v, h), _cross_quadratic(v - h, t - h),
                               _cross_quadratic(t, h), _cross_quadratic(v, t)], axis=1)
        lo, hi = self._adm_rows
        # a determinant with c2 <= 0 takes its minimum at an end row; its
        # vertex slot then just evaluates row 0
        vertex = np.clip(np.divide(-c1, 2.0 * c2, out=np.zeros_like(c1), where=c2 > 0),
                         lo, hi)
        j = np.stack([np.full_like(vertex, lo), np.floor(vertex), np.ceil(vertex),
                      np.full_like(vertex, hi)])
        dets = c0 + j * (c1 + j * c2)
        return not (self.template.lam ** 2 * dets < ORIENTATION_TOL).any()

    # -- the evaluation record ----------------------------------------------

    def _at(self, x, order):
        """The record of x with its stages built through `order`: 0 the energy,
        1 the gradient, 2 the Hessian blocks."""
        p = self._last
        if p is None or not np.array_equal(p.x, x):
            self._last = None  # release the old record before building the new one
            p = self._last = self._energy_stage(np.array(x, dtype=float))
        if order >= 1 and p.grad is None:
            self._gradient_stage(p)
        if order >= 2 and p.blocks is None:
            self._hessian_stage(p)
        return p

    def _energy_stage(self, x):
        W, t = self._node_stencil(x)
        q, r, X, B1, B2 = brackets(W[..., :2, :], W[..., 2:, :], self.template.wells)
        return _Point(x, t, rule_total(B1 * B2, self.weights, self.scale),
                      (W, q, r, X), (B1, B2))

    def _gradient_stage(self, p):
        (W, q, r, X), (B1, B2) = p.inner, p.B
        t = p.t if self.variable_tau else None
        fk, d = _bracket_parts(q, r, X, B1, B2, self.template.wells)
        gz, G = _reduced_gradient(W, d, t, self.nodes, self.weights)
        p.inner = p.B = None
        p.t, p.slope = t, _Slope(W, fk, d, B1 + B2, G)
        index = self._scatter()
        # the rule's weights already carry the full row sum, so only `scale` remains
        p.grad = self.scale * np.bincount(index.grad_dofs,
                                          weights=(gz @ self._z)[index.grad_keep],
                                          minlength=self.ndof)

    def _hessian_stage(self, p):
        sl, t = p.slope, p.t
        p.slope = p.t = None
        Hz = _reduced_hessian(sl.W, sl.fk, sl.d, sl.B, sl.G, t, self.nodes, self.weights)
        H = Hz.reshape(len(Hz), -1) @ self._zz
        # blocks of s dofs: each stencil entry lies within one block or couples
        # it to the next.  The upper triangle of each stencil Hessian goes,
        # entry (r, c), into D[r // s] or U[r // s], and D's is mirrored; the
        # pad dofs of the last block get an identity diagonal
        index = self._scatter()
        s, m = index.s, index.m
        blocks = self.scale * np.bincount(index.block, weights=H[index.upper],
                                          minlength=(2 * m - 1) * s * s)
        D, U = blocks[:m * s * s].reshape(m, s, s), blocks[m * s * s:].reshape(m - 1, s, s)
        r, c = np.tril_indices(s, -1)
        D[:, r, c] = D[:, c, r]
        pad = np.arange(self.ndof - (m - 1) * s, s)
        D[-1, pad, pad] = 1.0
        p.blocks = D, U

    def _scatter(self):
        """The problem's `_Scatter`, built on first use."""
        if self._index is None:
            dofs = self._dofs
            keep = dofs >= 0
            s = max(min(3 * self.nd - 1, self.ndof - 1), 1)
            m = -(-self.ndof // s)
            row, col = dofs[:, :, None], dofs[:, None, :]
            upper = (row >= 0) & (col >= row)
            block = (col // s - row // s) * m * s * s + row * s + col % s
            self._index = _Scatter(dofs[keep], keep,
                                   block[upper], upper.reshape(len(dofs), -1), s, m)
        return self._index

    # -- public evaluations -------------------------------------------------
    # arrays are returned as copies, so a caller that changes one leaves the
    # record intact

    def energy(self, x) -> float:
        return self._at(x, 0).energy

    def gradient(self, x):
        return self._at(x, 1).grad.copy()

    def hessian_banded(self, x):
        """Free-variable Hessian as block tridiagonal (D, U): diagonal blocks
        (m, s, s) and superdiagonal blocks (m - 1, s, s), U[i] coupling block i
        to block i + 1, over dofs padded to m * s."""
        D, U = self._at(x, 2).blocks
        return D.copy(), U.copy()


class _Scatter(NamedTuple):
    """Where the derivative stages put the centers' entries."""
    grad_dofs: np.ndarray   # the gradient's dof of each kept entry
    grad_keep: np.ndarray   # mask of free entries over (centers, 3 nd)
    block: np.ndarray       # flat index into D, U of each kept Hessian entry
    upper: np.ndarray       # mask of the kept upper triangle over (centers, (3 nd)^2)
    s: int                  # block size
    m: int                  # block count


class _Slope(NamedTuple):
    """What the gradient stage leaves for the Hessian stage, per center."""
    W: np.ndarray    # the node stencil
    fk: np.ndarray   # f - alpha_k
    d: np.ndarray    # dD/df
    B: np.ndarray    # B1 + B2
    G: np.ndarray    # the theta vectors, None with fixed tau


@dataclass(eq=False)
class _Point:
    """One x and what a ChainProblem has evaluated there.

    Each stage sets to None what no later stage reads: the gradient stage
    turns `inner` and `B` into `slope` and keeps `t` (None with fixed tau),
    the Hessian stage drops `slope` and `t`, so that x, energy, grad and
    blocks remain.
    """
    x: np.ndarray
    t: np.ndarray
    energy: float
    inner: tuple          # W, q, r, X: the stencil and the brackets' inner terms
    B: tuple              # B1, B2
    slope: _Slope = None
    grad: np.ndarray = None
    blocks: tuple = None  # D, U


def _bracket_parts(q, r, X, B1, B2, wells):
    """f_k = f - alpha_k over the eight inner terms f (columns k of the last
    axis) and d = dD/df = 2 (B_2 f_1 + B_1 f_2), from the brackets' parts."""
    f = np.concatenate([q, r, X.reshape(X.shape[:-2] + (4,))], axis=-1)
    a2, b2 = wells.a * wells.a, wells.b * wells.b
    fk = f[..., None] - np.array([[a2, b2]] * 2 + [[b2, a2]] * 2 + [[0.0, 0.0]] * 4)
    d = 2.0 * (B2[..., None] * fk[..., 0] + B1[..., None] * fk[..., 1])
    return fk, d


def _density_gradient(W, d):
    """dD/dW = sum_m d_m df_m/dW in closed form, from the 2x2 blocks of d:
    dD/dv_s = 2 d_q[s] v_s + sum_t d_X[s, t] h_t, and the same for h_t."""
    v, h = W[..., :2, :], W[..., 2:, :]
    dX = d[..., 4:].reshape(d.shape[:-1] + (2, 2))
    return np.concatenate([2.0 * d[..., :2, None] * v + dX @ h,
                           2.0 * d[..., 2:4, None] * h + dX.swapaxes(-1, -2) @ v], axis=-2)


def _row_moments(nodes, weights, top):
    """The row rule's weights times j^k for k = 0..top, (top + 1, nodes)."""
    return weights * nodes ** np.arange(top + 1)[:, None]


def _reduced_gradient(W, d, t, nodes, weights):
    """dD/dz summed over the rule's nodes, (centers, nz), and G.

    W (centers, nodes, 4, 2); t (centers, 3, 2) the slots' extension
    vectors, None with fixed tau (nz = 4, z = y).  With A_k the j-moments of
    dD/dW, the y columns are A_0 contracted with dW/dy, and theta_s takes
    G_s . t'_s with G = Pi A_0 + Omega A_1 (centers, 3, 2), which the
    Hessian's rotating-frame term reuses; G is None with fixed tau.
    """
    powers = _row_moments(nodes, weights, 0 if t is None else 1)
    A = np.einsum("kj,ij...->ki...", powers, _density_gradient(W, d))
    gy = (_EY.T @ A[0]).reshape(len(W), 4)
    if t is None:
        return gy, None
    G = _PI @ A[0] + _OMEGA @ A[1]
    return np.concatenate([gy, (G * _quarter_turn(t)).sum(axis=-1)], axis=1), G


def _reduced_hessian(W, fk, d, B, G, t, nodes, weights):
    """d2D/dz2 summed over the rule's nodes, (centers, nz, nz).

    Per node, with Phi = df/dz and psi_k = Phi^T f_k,

        d2D/dz2 = P + P^T + sum_m d_m d2f_m/dz2 - [G_s . t_s on the theta diagonal],
              P = (B_1 + B_2) Phi^T Phi + 4 psi_1 psi_2^T.

    Phi = phi @ T over the node features phi (`_phi_table`).  P's first term
    is one batched product over (8 nodes) rows, and P + P^T is symmetric bit
    for bit, as are the terms after it; sum_m d_m d2f_m/dz2 is linear in the
    j-moments of d (`_curvature_table`); the last is the rotating frame,
    d2t/dtheta2 = -t, contracted with the gradient's G.  t and G are None
    with fixed tau, where z holds only y.
    """
    nc, nn = W.shape[:2]
    if t is None:
        nz, phi, T, CT, top = 4, W.reshape(nc, nn, 8), _PHI_T_FIXED, _CURV_T_FIXED, 0
    else:
        nz, T, CT, top = 7, _PHI_T, _CURV_T, 2
        tp = _quarter_turn(t)
        D = (W @ tp.swapaxes(1, 2)[:, None]).reshape(nc, nn, 12)
        phi = np.concatenate([W.reshape(nc, nn, 8), D, nodes[:, None] * D], axis=-1)
    Phi = (phi @ T).reshape(nc, nn, 8, nz)
    psi = Phi.swapaxes(-1, -2) @ fk
    Phi_w = Phi * (weights * B)[..., None, None]
    H = Phi_w.reshape(nc, nn * 8, nz).swapaxes(1, 2) @ Phi.reshape(nc, nn * 8, nz)
    H += (4.0 * weights[:, None] * psi[..., 0]).swapaxes(1, 2) @ psi[..., 1]
    H = H + H.swapaxes(1, 2)
    coef = (_row_moments(nodes, weights, top) @ d).reshape(nc, -1) @ CT
    H[:, :4, :4] += coef[:, :16].reshape(nc, 4, 4)
    if t is not None:
        y_theta = coef[:, 16:22].reshape(nc, 2, 1, 3) * tp.swapaxes(1, 2)[:, None]
        y_theta = y_theta.reshape(nc, 4, 3)
        H[:, :4, 4:] += y_theta
        H[:, 4:, :4] += y_theta.swapaxes(1, 2)
        H[:, 4:, 4:] += coef[:, 22:].reshape(nc, 3, 3) * (t @ t.swapaxes(1, 2))
        th = np.arange(4, 7)
        H[:, th, th] -= (G * t).sum(axis=-1)
    return H


def _cross_quadratic(p, q):
    """Coefficients (c0, c1, c2) of cross(p0 + j p1, q0 + j q1) in j."""
    return np.stack([cross2(p[0], q[0]), cross2(p[0], q[1]) + cross2(p[1], q[0]),
                     cross2(p[1], q[1])])


def _quarter_turn(t):
    """dt/dtheta of t = R(theta) tau, per vector on the last axis."""
    return t[..., ::-1] * (-1.0, 1.0)


def _block_cholesky_solve(D, U, b):
    """Solve the block tridiagonal SPD system (D, U) x = b by cyclic reduction.

    Each level eliminates the odd blocks: Cholesky of their pivots, which are
    Schur complements of the original matrix, then the Schur complement on
    the even blocks, which is block tridiagonal again with half as many
    blocks.  `np.linalg.LinAlgError` is raised exactly when a pivot, hence
    the matrix, is not positive definite.
    """
    levels = []
    while len(D) > 1:
        # Li = L^{-1} of each odd pivot; Zl, Zr its couplings to the left and
        # right even neighbours and zb its right-hand side, each premultiplied
        # by Li.  The last odd block lacks a right neighbour when len(D) is even
        Li = np.linalg.inv(np.linalg.cholesky(D[1::2]))
        p, q = len(Li), (len(D) - 1) // 2
        Zl = Li @ U[0::2].swapaxes(1, 2)
        Zr = Li[:q] @ U[1::2]
        zb = Li @ b[1::2, :, None]
        ZlT, ZrT = Zl.swapaxes(1, 2), Zr.swapaxes(1, 2)
        D_even, b_even = D[0::2].copy(), b[0::2].copy()
        D_even[:p] -= ZlT @ Zl
        D_even[1:q + 1] -= ZrT @ Zr
        b_even[:p] -= (ZlT @ zb)[..., 0]
        b_even[1:q + 1] -= (ZrT @ zb[:q])[..., 0]
        levels.append((Li, Zl, Zr, zb))
        D, U, b = D_even, -(ZlT[:q] @ Zr), b_even
    Li = np.linalg.inv(np.linalg.cholesky(D))
    x = (Li.swapaxes(1, 2) @ (Li @ b[..., None]))[..., 0]
    for Li, Zl, Zr, zb in reversed(levels):
        # back substitution: x_odd = L^{-T} (zb - Zl x_left - Zr x_right)
        p, q = len(Zl), len(Zr)
        rest = zb - Zl @ x[:p, :, None]
        rest[:q] -= Zr @ x[1:q + 1, :, None]
        both = np.empty((len(x) + p, x.shape[1]))
        both[0::2] = x
        both[1::2] = (Li.swapaxes(1, 2) @ rest)[..., 0]
        x = both
    return x


def _levenberg_step(D, U, grad):
    """Newton step on the block tridiagonal Hessian H under the least shift mu
    of the ladder `_SHIFTS` at which Cholesky succeeds; None if none does.

    mu = 0 is tried first.  H + mu I is positive definite exactly when mu
    exceeds -lambda_min(H), so success is monotone along the ladder, and a
    bisection over the other rungs finds the first that succeeds: the shift
    and the step of trying each rung in turn, in at most 6 attempts instead
    of up to 22.
    """
    rhs = np.zeros(D.shape[:2])
    rhs.flat[:grad.size] = -grad
    eye = np.eye(D.shape[1])

    def attempt(mu):
        try:
            return _block_cholesky_solve(D + mu * eye, U, rhs).ravel()[:grad.size]
        except np.linalg.LinAlgError:
            return None

    step = attempt(_SHIFTS[0])
    if step is not None:
        return step
    # rung lo fails; rung hi succeeds with `step` (hi = len(_SHIFTS): none known)
    lo, hi = 0, len(_SHIFTS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = attempt(_SHIFTS[mid])
        if trial is None:
            lo = mid
        else:
            hi, step = mid, trial
    return step


def _converged(grads, energies):
    """Stop "gradient" if |g|_inf <= _GRAD_RTOL * max(1, |g_0|_inf), else "energy
    floor" if the last step lowered E by at most the Armijo slack, else None."""
    if grads[-1] <= _GRAD_RTOL * max(1.0, grads[0]):
        return "gradient"
    if len(energies) > 1 and energies[-2] - energies[-1] <= _ENERGY_RTOL * abs(energies[-2]):
        return "energy floor"
    return None


def newton_minimize(chain: ChainState, opts: MinimizeOptions = None, *,
                    problem: ChainProblem = None) -> MinimizationReport:
    """Levenberg-damped Newton with Armijo backtracking and admissibility rejection,
    converged when `_converged` names a stop reason."""
    opts = opts or MinimizeOptions()
    if problem is None:
        problem = ChainProblem(chain, variable_tau=opts.variable_tau)
    x = problem.pack(chain)
    energy = problem.energy(x)
    grad = problem.gradient(x)
    energies = [energy]
    grads = [np.abs(grad).max()]
    violations = 0

    reason = _converged(grads, energies)
    while reason is None:
        if len(energies) > opts.max_iters:
            reason = "max iterations"
            break
        step = _levenberg_step(*problem.hessian_banded(x), grad)
        if step is None:
            reason = "regularization overflow"
            break
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            x_try = x + t * step
            if not problem.admissible(x_try):
                violations += 1
                t *= 0.5
                continue
            e_try = problem.energy(x_try)
            if e_try <= energy + _ARMIJO_C * t * slope + _ENERGY_RTOL * abs(energy):
                break
            t *= _BACKTRACK
        else:
            reason = "step collapse"
            break
        x, energy = x_try, e_try
        grad = problem.gradient(x)
        energies.append(energy)
        grads.append(np.abs(grad).max())
        reason = _converged(grads, energies)

    return MinimizationReport(
        final_chain=problem.apply(x), iterations=len(energies) - 1,
        grad_norm_history=np.array(grads), energy_history=np.array(energies),
        converged=reason in ("gradient", "energy floor"),
        admissibility_violations=violations, stop_reason=reason)


def twin_chain(n, wells: WellPair, interface_column: int = 0) -> ChainState:
    """Laminate of the two variants meeting at one column, clamped to itself.

    U0 x on the columns up to the interface, Q U1 x + c beyond it, with c
    chosen so both branches agree at the interface atom; tau is uniform.
    """
    if abs(interface_column) >= n:
        raise ValueError(f"interface column {interface_column} outside (-{n}, {n})")
    return piecewise_chain(n, wells, [interface_column], [wells.U0, wells.QU1])


def laminate_chain(n, wells: WellPair, lam_fraction: float,
                   variant: int = 0) -> ChainState:
    """Two-phase chain compatible with the mixed boundary gradient F.

    The interior splits into a U0 piece and a Q U1 piece whose widths carry
    volume fractions (1 - lam, lam), between F clamps at both ends: the
    piecewise chain [F | A | B | F] on the columns [-n, x_int n, n].  variant
    0 orders [U0 | QU1] (interface at x_int = 1 - 2 lam), variant 1 mirrors it.
    """
    if not 0.0 < lam_fraction < 1.0:
        raise ValueError("volume fraction must lie strictly inside (0, 1)")
    if variant not in (0, 1):
        raise ValueError(f"variant must be 0 or 1, got {variant!r}")
    F = boundary_gradient(wells, lam_fraction)
    A, B = (wells.U0, wells.QU1) if variant == 0 else (wells.QU1, wells.U0)
    x_int = (1.0 - 2.0 * lam_fraction) * (1 if variant == 0 else -1)
    return piecewise_chain(n, wells, [-n, x_int * n, n], [F, A, B, F])


def preoptimize_middle(chain: ChainState) -> ChainState:
    """Relax the middle atom with everything else frozen (2-dof Newton).

    Its window is the three centers whose stencil holds atom 0; the others
    add a constant to the energy."""
    sub = ChainProblem(chain, free_ids=[0], i_window=(-1, 1))
    report = newton_minimize(chain, problem=sub)
    if not report.converged:
        warnings.warn(f"middle-atom preoptimization did not converge "
                      f"({report.stop_reason}); returning input unchanged")
        return chain
    return report.final_chain
