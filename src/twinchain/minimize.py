"""Damped Newton relaxation of chain energies with analytic derivatives.

The density D = B_1 B_2 at a summand depends on four difference vectors
W = (v+, v-, h+, h-), affine in the three atom positions and, through the
extension vectors t_k = R(theta_k) tau, in j times the column angles.  Its
brackets are B_k = |f_k|^2, f_k = f - alpha_k, over the eight inner terms
f = [|v+|^2, |v-|^2, |h+|^2, |h-|^2, v_s . h_t].  With their 8x8 Jacobian
F = df/dW, g_k = 2 F^T f_k and K their constant second derivatives (`_K`),

    dD  = B_2 g_1 + B_1 g_2
    d2D = 2 (B_1 + B_2) F^T F + g_1 g_2^T + g_2 g_1^T + 2 (B_2 f_1 + B_1 f_2) . K

One Jacobian dW/dx = J0 + j*J1 over each center's stencil variables (J1 only
with variable tau) serves both: with A_k, N_k the j-moments of dD/dW and
d2D/dW2, a center adds sum_k A_k J_k to the gradient and
sum_{k,l} J_k^T N_{k+l} J_l to the Hessian.

Since W is affine in the row j, every row sum above (the energy, A_k for
k <= 1, N_k for k <= 2) is a polynomial of degree <= 8 in j.  A 5-node Gauss
rule for the uniform measure on the rows (`row_rule`) is exact to degree 9,
so the stencil is evaluated at five nodes per center instead of on every
row, and energy, gradient and Hessian cost O(n) for an n-row window.  Fixed
tau with zero angles makes the sums constant in j: one node, weight N.
Each triangle determinant of the orientation check is quadratic in j, so it
is evaluated only at the end rows and next to its vertex.

A problem evaluates each x once.  It keeps one record, of the last x it
was asked about: a copy of x, the node stencil W and t, the brackets and
the energy.  A gradient at that x adds F^T, f_k, g_k, the Jacobian and the
moments A_k; a Hessian there adds only d2D/dW2, its moments and the blocks.
So a Newton iteration, whose accepted trial's energy, gradient and next
Hessian share one x, builds the stencil, the brackets and F^T once.  A
stage drops what no later stage reads (F itself is built only for the
Hessian).  Any other x, compared by value so that an x changed in place is
never stale, replaces the record; the old one is released first.

Atoms couple only within distance 2 along the chain, so on the interleaved
free variables (ux, uy[, theta]), nd per atom, the Hessian has 3*nd - 1
superdiagonals.  In blocks of s = 3*nd - 1 dofs it is block tridiagonal:
each stencil's upper triangle is scattered straight into the diagonal
blocks D and the superdiagonal blocks U.  Each Newton step solves (D, U) by
block cyclic reduction with numpy's batched Cholesky, under a Levenberg
shift that grows tenfold until every pivot factors.  Steps are
Armijo-backtracked on the energy and rejected (halved) whenever the trial
configuration loses admissibility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import brackets, slot_stencil
from .lattice import (
    ORIENTATION_TOL,
    BoundaryClamp,
    ChainState,
    LatticeGeometry,
    cross2,
)
from .wells import WellPair

__all__ = [
    "MinimizeOptions",
    "MinimizationReport",
    "ChainProblem",
    "twin_chain",
    "laminate_chain",
    "preoptimize_middle",
    "newton_minimize",
    "row_rule",
]

# _K[m] = d2 f_m / dW2 over the flattened W = [v+, v-, h+, h-], for the inner
# terms f_m = W_a . W_b: squared lengths, then v_s . h_t for (s, t) = ++, +-,
# -+, --.  Row m of F is _K[m] @ W: 2 W_a in block a for a squared length, h_t
# in block s and v_s in block 2 + t for a cross term.  W @ _DFT gives F^T,
# C-ordered (a batched matmul on a transposed view is several times slower).
# Every entry of F is one entry of W, or twice one, so F and F^T are exact
_E = np.eye(4)
_K = np.array([np.kron(np.outer(_E[a], _E[b]) + np.outer(_E[b], _E[a]), np.eye(2))
               for a, b in [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 2), (1, 3)]])
_DFT = np.ascontiguousarray(_K.swapaxes(0, 1).reshape(64, 8).T)

# chain offsets of the stencil slots m, c, p (atoms i-1, i, i+1), on axis 0
_SLOT = np.array([[-1], [0], [1]])

# per-slot contraction weights over the W vectors; rows are the slots m = atom
# i-1, c = atom i, p = atom i+1.  _OMEGA weighs the u Jacobian and the
# j-proportional part of the theta Jacobian, _PI its j-independent part
_OMEGA = np.array([[0.0, 1.0, 0.0, 1.0],
                   [-1.0, -1.0, -1.0, -1.0],
                   [1.0, 0.0, 1.0, 0.0]])
_PI = np.array([[0.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0]])

# Gauss nodes per row rule: exact to degree 9 in j, above the degree 8 of every
# row sum the solver takes
_RULE_NODES = 5

# first Levenberg shift, Armijo constant and backtracking factor
_REGULARIZATION = 1e-8
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
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
    lattice triangles that touch a free atom, on the same stencil.  A
    problem keeps the evaluation record of the last x it was asked about
    (`_at`), so one problem serves one thread.
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
        if np.abs(self.free_ids).max() >= n:
            raise ValueError("free atoms must be interior columns")
        self.i_lo, self.i_hi = i_window if i_window is not None else (-n, n)
        self.j_lo, self.j_hi = j_window if j_window is not None else (-n, n)
        self.scale = float(chain.lam ** 2 if scale is None else scale)
        self.centers = np.arange(self.i_lo, self.i_hi + 1)
        # every row sum is a polynomial of degree <= 8 in j; fixed tau and
        # identically zero angles make it constant, so row 0 carries them all
        if not variable_tau and np.abs(chain.theta).max() == 0.0:
            self.nodes = np.zeros(1)
            self.weights = np.array([self.j_hi - self.j_lo + 1.0])
        else:
            self.nodes, self.weights = row_rule(self.j_lo, self.j_hi)
        self._slots = self._frozen_slots(self.centers)
        # per center and stencil variable (slot-major, as in _jacobian): the
        # global dof, or -1 for a clamped or frozen atom
        first = np.searchsorted(self.free_ids, self.centers + _SLOT).T[..., None] * self.nd
        self._dofs = np.where(self._slots[1].T[..., None], first + np.arange(self.nd),
                              -1).reshape(self.centers.size, -1)
        # lattice cell (c, j) spans atoms c..c+2 in rows j, j+1: the stencil of
        # center c+1.  Only cells with a free atom can change during a solve
        mid = np.arange(-n - 1, n + 2)
        self._adm_slots = self._frozen_slots(mid[np.isin(mid + _SLOT, self.free_ids).any(axis=0)])
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
        atoms = centers + _SLOT
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
        D = B1 * B2
        energy = math.fsum(self.scale * w * math.fsum(D[:, k])
                           for k, w in enumerate(self.weights))
        return _Point(x, t, energy, (W, q, r, X), (B1, B2))

    def _gradient_stage(self, p):
        FT, fk, G, dD = _density_slope(*p.inner, *p.B, self.template.wells)
        p.inner, p.slope = None, (FT, fk, G)
        p.J = self._jacobian(p.t)
        p.A = self._moments(dD, len(p.J) - 1)
        g = _contract(p.A, p.J)
        keep = self._dofs >= 0
        # moments already carry the full row sum, so only `scale` remains
        p.grad = self.scale * np.bincount(self._dofs[keep], weights=g[keep],
                                          minlength=self.ndof)

    def _hessian_stage(self, p):
        M = _density_curvature(*p.slope, *p.B)
        J, A, t = p.J, p.A, p.t
        p.B = p.slope = p.J = p.A = p.t = None
        N = self._moments(M, 2 * len(J) - 2)
        del M
        H = sum(np.swapaxes(Jk, 1, 2) @ N[k + l] @ Jl
                for k, Jk in enumerate(J) for l, Jl in enumerate(J))
        if self.variable_tau:
            # curvature of the rotating frame: d2t/dtheta2 = -t, so d2W/dtheta2
            # is minus the theta columns of the Jacobian with t' replaced by t
            th = np.arange(2, 3 * self.nd, self.nd)
            H[:, th, th] -= _contract(A, [c.reshape(len(t), 8, 3) for c in _theta_columns(t)])
        # blocks of s dofs: each stencil entry lies within one block or couples
        # it to the next.  Scatter the upper triangle of each stencil Hessian,
        # entry (r, c) into D[r // s] or U[r // s], then mirror D's; the pad
        # dofs of the last block get an identity diagonal
        s = max(min(3 * self.nd - 1, self.ndof - 1), 1)
        m = -(-self.ndof // s)
        row, col = self._dofs[:, :, None], self._dofs[:, None, :]
        keep = (row >= 0) & (col >= row)
        block = np.broadcast_to((col // s - row // s) * m * s * s + row * s + col % s, H.shape)
        blocks = self.scale * np.bincount(block[keep], weights=H[keep],
                                          minlength=(2 * m - 1) * s * s)
        D, U = blocks[:m * s * s].reshape(m, s, s), blocks[m * s * s:].reshape(m - 1, s, s)
        r, c = np.tril_indices(s, -1)
        D[:, r, c] = D[:, c, r]
        pad = np.arange(self.ndof - (m - 1) * s, s)
        D[-1, pad, pad] = 1.0
        p.blocks = D, U

    def _moments(self, arr, top):
        """Row sums sum_j j^k * arr for k = 0..top, by the row rule (nodes on axis 1)."""
        return [np.einsum("j,ij...->i...", self.weights * self.nodes ** k, arr)
                for k in range(top + 1)]

    def _jacobian(self, t):
        """dW/dx = J0 + j*J1 as [J0] (fixed tau) or [J0, J1], each (centers, 8, 3*nd).

        Columns are the stencil variables (ux, uy[, theta]) slot by slot.  The
        u columns are Omega/lam, the theta columns Pi t' (J0) and Omega t' (J1).
        """
        nc = t.shape[0]
        J = np.zeros((1 + self.variable_tau, nc, 4, 2, 3, self.nd))
        J[0, ..., :2] = _OMEGA.T[:, None, :, None] * np.eye(2)[:, None, :] / self.template.lam
        if self.variable_tau:
            J[0, ..., 2], J[1, ..., 2] = _theta_columns(_quarter_turn(t))
        return list(J.reshape(len(J), nc, 8, -1))

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


@dataclass(eq=False)
class _Point:
    """One x and what a ChainProblem has evaluated there.

    Each stage sets to None what no later stage reads: the gradient stage
    drops `inner`, the Hessian stage `B`, `slope`, `t`, `J` and `A`, so that
    x, energy, grad and blocks remain.
    """
    x: np.ndarray
    t: np.ndarray
    energy: float
    inner: tuple          # W, q, r, X: the stencil and the brackets' inner terms
    B: tuple              # B1, B2
    slope: tuple = None   # F^T, f_k, g_k
    J: list = None
    A: list = None
    grad: np.ndarray = None
    blocks: tuple = None  # D, U


def _density_slope(W, q, r, X, B1, B2, wells):
    """dD/dW = B_2 g_1 + B_1 g_2 from the brackets' parts, and the F^T, f_k
    (columns of fk) and g_k = 2 F^T f_k (columns of G) that d2D/dW2 reuses."""
    w = W.reshape(W.shape[:-2] + (8,))
    f = np.concatenate([q, r, X.reshape(w.shape[:-1] + (4,))], axis=-1)
    a2, b2 = wells.a * wells.a, wells.b * wells.b
    fk = f[..., None] - np.array([[a2, b2]] * 2 + [[b2, a2]] * 2 + [[0.0, 0.0]] * 4)
    FT = (w @ _DFT).reshape(w.shape[:-1] + (8, 8))
    G = 2.0 * (FT @ fk)
    return FT, fk, G, (G @ _other_bracket(B1, B2))[..., 0]


def _density_curvature(FT, fk, G, B1, B2):
    """d2D/dW2 from the parts `_density_slope` returns; each term is exactly
    symmetric, as S + S^T adds the same pair both ways.  Each (..., 8, 8)
    temporary is freed once summed, which bounds the Hessian's peak memory."""
    F = np.ascontiguousarray(FT.swapaxes(-1, -2))
    M = 2.0 * (B1 + B2)[..., None, None] * (FT @ F)
    del F
    S = G[..., :, None, 0] * G[..., None, :, 1]
    M += S + S.swapaxes(-1, -2)
    del S
    c = (fk @ _other_bracket(B1, B2))[..., 0]
    M += (2.0 * c @ _K.reshape(8, 64)).reshape(M.shape)
    return M


def _other_bracket(B1, B2):
    """(B_2, B_1) as a column: each bracket weighs the other's g_k."""
    return np.stack([B2, B1], axis=-1)[..., None]


def row_rule(j_lo, j_hi):
    """Gauss nodes and weights of the uniform measure on the rows j_lo..j_hi.

    Golub-Welsch on the recurrence of the discrete Chebyshev (Gram)
    polynomials: alpha = (j_lo + j_hi)/2 and beta_k = k^2 (N^2 - k^2) /
    (4 (4k^2 - 1)) for N rows.  The min(5, N) nodes sum every polynomial of
    degree <= 9 in j exactly; with N <= 5 they are the rows themselves.
    """
    rows = j_hi - j_lo + 1
    k = np.arange(1.0, min(_RULE_NODES, rows))
    off = np.sqrt(k * k * (rows * rows - k * k) / (4.0 * (4.0 * k * k - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (j_lo + j_hi) + nodes, rows * vectors[0] ** 2


def _cross_quadratic(p, q):
    """Coefficients (c0, c1, c2) of cross(p0 + j p1, q0 + j q1) in j."""
    return np.stack([cross2(p[0], q[0]), cross2(p[0], q[1]) + cross2(p[1], q[0]),
                     cross2(p[1], q[1])])


def _quarter_turn(t):
    """dt/dtheta of t = R(theta) tau, per vector on the last axis."""
    return t[..., ::-1] * (-1.0, 1.0)


def _theta_columns(dt):
    """Pi dt and Omega dt over the slot vectors dt (centers, 3, 2), each
    (centers, 4, 2, 3): the theta columns of J0 and J1 when dt = t'."""
    dt = np.swapaxes(dt, 1, 2)[:, None]
    return [w.T[:, None, :] * dt for w in (_PI, _OMEGA)]


def _contract(A, J):
    """sum_k A_k . J_k per center: row moments of dD/dW times the Jacobian."""
    return sum(np.einsum("ie,iev->iv", a, jac) for a, jac in zip(A, J))


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
    """Newton step on the block tridiagonal Hessian, shifted until Cholesky
    succeeds; None past 1e12."""
    rhs = np.zeros(D.shape[:2])
    rhs.flat[:grad.size] = -grad
    eye = np.eye(D.shape[1])
    mu = 0.0
    while mu <= 1e12:
        try:
            return _block_cholesky_solve(D + mu * eye, U, rhs).ravel()[:grad.size]
        except np.linalg.LinAlgError:
            mu = _REGULARIZATION if mu == 0.0 else mu * 10.0
    return None


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

    Left branch samples U0 x, right branch Q U1 x + c with c chosen so both
    branches agree at the interface atom; tau is uniform.
    """
    if abs(interface_column) >= n:
        raise ValueError(f"interface column {interface_column} outside (-{n}, {n})")
    geom = LatticeGeometry(n=n)
    lam = geom.lambda_n
    A, B = wells.U0, wells.QU1
    offset = (A - B) @ np.array([interface_column * lam, 0.0])
    bc = BoundaryClamp.pieces(A, np.zeros(2), B, offset)
    ids = geom.atom_ids()
    x = np.stack([ids * lam, np.zeros_like(ids, dtype=float)], axis=-1)
    u = np.where((ids <= interface_column)[:, None], x @ A.T, x @ B.T + offset)
    return ChainState(geometry=geom, wells=wells, bc=bc,
                      u=u, theta=np.zeros(geom.atom_count))


def laminate_chain(n, wells: WellPair, lam_fraction: float,
                   variant: int = 0) -> ChainState:
    """Two-phase chain compatible with the mixed boundary gradient F.

    The interior splits into a U0 piece and a Q U1 piece whose widths carry
    volume fractions (1 - lam, lam); offsets make the profile continuous at
    both clamped ends exactly.  variant 0 orders [U0 | QU1] (interface near
    x = 1 - 2 lam), variant 1 mirrors it.  When the exact interface does not
    land on an atom the nearest column takes the midpoint of the two branches.
    """
    from .wells import boundary_gradient

    if not 0.0 < lam_fraction < 1.0:
        raise ValueError("volume fraction must lie strictly inside (0, 1)")
    bg = boundary_gradient(wells, lam_fraction)
    geom = LatticeGeometry(n=n)
    lam = geom.lambda_n
    width = n * lam
    A, B = (wells.U0, wells.QU1) if variant == 0 else (wells.QU1, wells.U0)
    x_int = (1.0 - 2.0 * lam_fraction) * (1 if variant == 0 else -1) * width
    cA = (bg.F - A) @ np.array([-width, 0.0])
    cB = (bg.F - B) @ np.array([width, 0.0])
    ids = geom.atom_ids()
    x = np.stack([ids * lam, np.zeros_like(ids, dtype=float)], axis=-1)
    left = x @ A.T + cA
    right = x @ B.T + cB
    xi = ids * lam
    u = np.where((xi < x_int - 0.5 * lam)[:, None], left,
                 np.where((xi > x_int + 0.5 * lam)[:, None], right,
                          0.5 * (left + right)))
    # clamp columns carry the mixed map itself; the branch formulas agree with
    # it exactly at i = +-n but drift in the ghost columns beyond
    clamped = np.abs(ids) >= n
    u[clamped] = x[clamped] @ bg.F.T
    bc = BoundaryClamp.affine(bg.F)
    return ChainState(geometry=geom, wells=wells, bc=bc,
                      u=u, theta=np.zeros(geom.atom_count))


def preoptimize_middle(chain: ChainState) -> ChainState:
    """Relax the middle atom with everything else frozen (2-dof Newton)."""
    sub = ChainProblem(chain, variable_tau=False, free_ids=[0])
    report = newton_minimize(chain, problem=sub)
    if not report.converged:
        warnings.warn(f"middle-atom preoptimization did not converge "
                      f"({report.stop_reason}); returning input unchanged")
        return chain
    return report.final_chain
