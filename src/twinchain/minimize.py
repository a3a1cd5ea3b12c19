"""Damped Newton relaxation of chain energies with analytic derivatives.

The density at a summand depends on four difference vectors (v+, v-, h+, h-),
each affine in the three atom positions (u^{i-1}, u^i, u^{i+1}) and, through
the per-column extension vectors t_k = R(theta_k) tau, affine in j times the
column angles.  Gradients and Hessians are assembled from per-summand
derivatives of the density with respect to those vectors, contracted against
the constant (u) and j-affine (theta) Jacobians.  Row sums therefore reduce
to j-moments of the per-summand quantities: moment 0 for u-u coupling,
moments 0..1 for u-theta, 0..2 for theta-theta.

Atoms couple only within distance 2 along the chain, so the Hessian on the
interleaved free variables (ux, uy[, theta]) is banded with bandwidth
3*stride - 1; solves use a banded Cholesky with a Levenberg shift that grows
tenfold until the factorization succeeds.  Steps are Armijo-backtracked on
the energy and rejected (halved) whenever the trial configuration loses
admissibility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .energy import brackets, chain_stencil
from .lattice import (
    BoundaryClamp,
    ChainState,
    LatticeGeometry,
    check_admissible,
    reconstruct,
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
    "gradient",
    "hessian",
]

# W-vector order used throughout: [v+, v-, h+, h-]; only v-h pairs enter the
# cross terms
_VH_MASK = np.array([[0.0, 0.0, 1.0, 1.0],
                     [0.0, 0.0, 1.0, 1.0],
                     [1.0, 1.0, 0.0, 0.0],
                     [1.0, 1.0, 0.0, 0.0]])

# per-slot contraction weights over the W vectors; slots are
# p = atom i+1, m = atom i-1, c = atom i.  _OMEGA weighs the u Jacobian and
# the j-proportional part of the theta Jacobian, _PI its j-independent part
_OMEGA = {"p": np.array([1.0, 0.0, 1.0, 0.0]),
          "m": np.array([0.0, 1.0, 0.0, 1.0]),
          "c": np.array([-1.0, -1.0, -1.0, -1.0])}
_PI = {"p": np.array([1.0, 0.0, 0.0, 0.0]),
       "m": np.array([0.0, -1.0, 0.0, 0.0]),
       "c": np.zeros(4)}

# first Levenberg shift, Armijo constant and backtracking factor
_REGULARIZATION = 1e-8
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
# a trial energy this close (relative) to the current one is rounding noise;
# near the minimum the predicted Armijo decrease falls below one ulp of E
_ENERGY_RTOL = 16.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MinimizeOptions:
    variable_tau: bool = False
    grad_tol: float = 1e-10
    max_iters: int = 500

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("gradient tolerance must be positive")


@dataclass
class MinimizationReport:
    final_chain: ChainState
    iterations: int
    grad_norm_history: np.ndarray
    energy_history: np.ndarray
    converged: bool
    admissibility_violations: int
    options: MinimizeOptions
    stop_reason: str = ""


class ChainProblem:
    """Energy, gradient and banded Hessian over a chosen set of free atoms.

    The window (i_lo..i_hi) x (j_lo..j_hi) selects which summands count;
    `scale` multiplies the raw density sum (lam^2 for physical chains, a row
    average like 1/n for rescaled layer problems).  Admissibility rejection
    can be restricted to cells near the counted window via admissible_cells.
    """

    def __init__(self, chain: ChainState, *, variable_tau=False, free_ids=None,
                 i_window=None, j_window=None, scale=None, admissible_cells=None):
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
        self.admissible_cells = admissible_cells
        self.centers = np.arange(self.i_lo, self.i_hi + 1)
        self.rows = np.arange(self.j_lo, self.j_hi + 1, dtype=float)
        # fixed tau and identically zero angles make every row identical, so
        # the stencil is evaluated on row 0 alone and weighted by the row count
        self._uniform_rows = (not variable_tau) and np.abs(chain.theta).max() == 0.0
        self._stencil_rows = np.zeros(1) if self._uniform_rows else self.rows
        self._row_weight = float(self.rows.size) if self._uniform_rows else 1.0
        # per slot and center: the free-variable row of the slot's atom, or -1
        self._slot_rows = {}
        for slot, offset in zip("mcp", (-1, 0, 1)):
            atoms = self.centers + offset
            self._slot_rows[slot] = np.where(np.isin(atoms, self.free_ids),
                                             np.searchsorted(self.free_ids, atoms), -1)

    # -- state plumbing ----------------------------------------------------

    @property
    def ndof(self):
        return self.free_ids.size * self.nd

    def pack(self, chain: ChainState):
        idx = chain.geometry.atom_index(self.free_ids)
        cols = [chain.u[idx, 0], chain.u[idx, 1]]
        if self.variable_tau:
            cols.append(chain.theta[idx])
        return np.stack(cols, axis=1).ravel()

    def apply(self, x) -> ChainState:
        x = np.asarray(x, dtype=float).reshape(self.free_ids.size, self.nd)
        chain = self.template
        idx = chain.geometry.atom_index(self.free_ids)
        u = chain.u.copy()
        theta = chain.theta.copy()
        u[idx] = x[:, :2]
        if self.variable_tau:
            theta[idx] = x[:, 2]
        return chain.with_arrays(u=u, theta=theta)

    def admissible(self, chain: ChainState) -> bool:
        window = self.admissible_cells or (None, None)
        return not check_admissible(reconstruct(chain), *window)

    # -- per-summand derivative kernels ------------------------------------

    def _density_parts(self, W, order):
        """Density D plus dD/dW (order>=1) and d2D/dW2 (order>=2), per summand."""
        wells = self.template.wells
        q, r, X, B1, B2 = brackets(W[..., :2, :], W[..., 2:, :], wells)
        out = [B1 * B2]
        if order == 0:
            return out
        a2 = wells.a * wells.a
        b2 = wells.b * wells.b
        dev = [np.concatenate([q - a2, r - b2], axis=-1),
               np.concatenate([q - b2, r - a2], axis=-1)]
        Cvh = np.zeros(W.shape[:-2] + (4, 4))  # v-h entries of the Gram matrix
        Cvh[..., :2, 2:] = X
        Cvh[..., 2:, :2] = np.swapaxes(X, -1, -2)
        g = [4.0 * dev[k][..., :, None] * W + 2.0 * np.einsum("...ab,...bk->...ak", Cvh, W)
             for k in range(2)]
        out.append(B2[..., None, None] * g[0] + B1[..., None, None] * g[1])
        if order == 1:
            return out
        eye = np.eye(2)
        WW = np.einsum("...ak,...al->...akl", W, W)
        # diagonal blocks of each bracket Hessian
        opp = np.einsum("ab,...bkl->...akl", _VH_MASK, WW)
        diag = [4.0 * dev[k][..., :, None, None] * eye + 8.0 * WW + 2.0 * opp
                for k in range(2)]
        # off-diagonal v-h blocks: 2 C_ab I + 2 W_b (x) W_a
        cross_blk = (2.0 * Cvh[..., :, :, None, None] * eye
                     + 2.0 * _VH_MASK[:, :, None, None]
                     * np.einsum("...bk,...al->...abkl", W, W))
        H = []
        for k in range(2):
            Hk = cross_blk.copy()
            di = np.arange(4)
            Hk[..., di, di, :, :] = diag[k]
            H.append(Hk)
        M = (B2[..., None, None, None, None] * H[0]
             + B1[..., None, None, None, None] * H[1]
             + np.einsum("...ak,...bl->...abkl", g[0], g[1])
             + np.einsum("...ak,...bl->...abkl", g[1], g[0]))
        out.append(M)
        return out

    # -- public evaluations -------------------------------------------------

    def energy(self, x) -> float:
        W, _ = chain_stencil(self.apply(x), self.centers, self._stencil_rows)
        (D,) = self._density_parts(W, order=0)
        return self.scale * self._row_weight * math.fsum(D.ravel(order="C"))

    def _moments(self, arr, top):
        """List of sum_j j^k * arr for k = 0..top (j axis = 1)."""
        j = self.rows
        if self._uniform_rows:
            sums = [float((j ** k).sum()) for k in range(top + 1)]
            return [arr[:, 0] * s for s in sums]
        out = []
        for k in range(top + 1):
            out.append(np.einsum("j,ij...->i...", j ** k, arr))
        return out

    def gradient(self, x):
        chain = self.apply(x)
        W, t = chain_stencil(chain, self.centers, self._stencil_rows)
        _, G = self._density_parts(W, order=1)
        A0, A1 = self._moments(G, 1)
        lam = chain.lam
        g = np.zeros((self.free_ids.size, self.nd))
        for slot, rows in self._slot_rows.items():
            gu = np.einsum("a,iak->ik", _OMEGA[slot], A0) / lam
            if self.variable_tau:
                turn = t[slot][:, ::-1] * (-1.0, 1.0)  # dt/dtheta, a quarter turn
                gth = (np.einsum("a,iak,ik->i", _PI[slot], A0, turn)
                       + np.einsum("a,iak,ik->i", _OMEGA[slot], A1, turn))
                block = np.concatenate([gu, gth[:, None]], axis=1)
            else:
                block = gu
            keep = rows >= 0
            np.add.at(g, rows[keep], block[keep])
        # moments already carry the full row sum, so only `scale` remains
        return self.scale * g.ravel()

    def hessian_dense(self, x):
        chain = self.apply(x)
        W, t = chain_stencil(chain, self.centers, self._stencil_rows)
        _, G, M = self._density_parts(W, order=2)
        top = 2 if self.variable_tau else 0
        N = self._moments(M, top)
        if self.variable_tau:
            A0, A1 = self._moments(G, 1)
            turns = {slot: ts[:, ::-1] * (-1.0, 1.0) for slot, ts in t.items()}
        lam = chain.lam
        nfree, nd = self.free_ids.size, self.nd
        H = np.zeros((nfree * nd, nfree * nd))
        for sa, rows_a in self._slot_rows.items():
            for sb, rows_b in self._slot_rows.items():
                keep = (rows_a >= 0) & (rows_b >= 0)
                if not keep.any():
                    continue
                ra = rows_a[keep]
                rb = rows_b[keep]
                blk = np.zeros((keep.sum(), nd, nd))
                uu = np.einsum("a,b,iabkl->ikl", _OMEGA[sa], _OMEGA[sb], N[0][keep])
                blk[:, :2, :2] = uu / (lam * lam)
                if self.variable_tau:
                    tb = turns[sb][keep]
                    ta = turns[sa][keep]
                    uth = (np.einsum("a,b,iabkl,il->ik", _OMEGA[sa], _PI[sb], N[0][keep], tb)
                           + np.einsum("a,b,iabkl,il->ik", _OMEGA[sa], _OMEGA[sb], N[1][keep], tb))
                    blk[:, :2, 2] = uth / lam
                    thu = (np.einsum("a,b,iabkl,ik->il", _PI[sa], _OMEGA[sb], N[0][keep], ta)
                           + np.einsum("a,b,iabkl,ik->il", _OMEGA[sa], _OMEGA[sb], N[1][keep], ta))
                    blk[:, 2, :2] = thu / lam
                    thth = (np.einsum("a,b,iabkl,ik,il->i", _PI[sa], _PI[sb], N[0][keep], ta, tb)
                            + np.einsum("a,b,iabkl,ik,il->i", _PI[sa], _OMEGA[sb], N[1][keep], ta, tb)
                            + np.einsum("a,b,iabkl,ik,il->i", _OMEGA[sa], _PI[sb], N[1][keep], ta, tb)
                            + np.einsum("a,b,iabkl,ik,il->i", _OMEGA[sa], _OMEGA[sb], N[2][keep], ta, tb))
                    blk[:, 2, 2] = thth
                dof_a = (ra[:, None] * nd + np.arange(nd)[None, :])
                dof_b = (rb[:, None] * nd + np.arange(nd)[None, :])
                np.add.at(H, (dof_a[:, :, None], dof_b[:, None, :]), blk)
        if self.variable_tau:
            # curvature of the rotating frame: d2 t / dtheta2 = -t
            for sb, rows_b in self._slot_rows.items():
                keep = rows_b >= 0
                if not keep.any():
                    continue
                rb = rows_b[keep]
                t_b = t[sb][keep]
                extra = -(np.einsum("a,iak,ik->i", _PI[sb], A0[keep], t_b)
                          + np.einsum("a,iak,ik->i", _OMEGA[sb], A1[keep], t_b))
                np.add.at(H, (rb * nd + 2, rb * nd + 2), extra)
        return self.scale * H

    def hessian_banded(self, x):
        """Upper banded form (scipy layout) of the free-variable Hessian."""
        H = self.hessian_dense(x)
        ndof = H.shape[0]
        bw = min(3 * self.nd - 1, ndof - 1)
        ab = np.zeros((bw + 1, ndof))
        for r in range(bw + 1):
            d = bw - r  # superdiagonal offset
            if d == 0:
                ab[bw, :] = np.diag(H)
            else:
                ab[r, d:] = np.diag(H, k=d)
        return ab, bw


def _finish(problem, x, energies, grads, violations, converged, opts, reason):
    return MinimizationReport(
        final_chain=problem.apply(x), iterations=len(energies) - 1,
        grad_norm_history=np.array(grads), energy_history=np.array(energies),
        converged=converged, admissibility_violations=violations,
        options=opts, stop_reason=reason)


def newton_minimize(chain: ChainState, opts: MinimizeOptions = None, *,
                    problem: ChainProblem = None) -> MinimizationReport:
    """Levenberg-damped Newton with Armijo backtracking and admissibility rejection."""
    opts = opts or MinimizeOptions()
    if problem is None:
        problem = ChainProblem(chain, variable_tau=opts.variable_tau)
    x = problem.pack(chain)
    energy = problem.energy(x)
    grad = problem.gradient(x)
    energies = [energy]
    grads = [np.abs(grad).max() if grad.size else 0.0]
    violations = 0

    for _ in range(opts.max_iters):
        if grads[-1] <= opts.grad_tol:
            return _finish(problem, x, energies, grads, violations, True, opts, "gradient")
        ab, bw = problem.hessian_banded(x)
        mu = 0.0
        while True:
            shifted = ab.copy()
            shifted[bw, :] += mu
            try:
                step = scipy.linalg.solveh_banded(shifted, -grad, lower=False)
                break
            except np.linalg.LinAlgError:
                mu = _REGULARIZATION if mu == 0.0 else mu * 10.0
                if mu > 1e12:
                    return _finish(problem, x, energies, grads, violations, False,
                                   opts, "regularization overflow")
        slope = float(grad @ step)
        t = 1.0
        accepted = False
        for _ in range(60):
            x_try = x + t * step
            if not problem.admissible(problem.apply(x_try)):
                violations += 1
                t *= 0.5
                continue
            e_try = problem.energy(x_try)
            if e_try <= energy + _ARMIJO_C * t * slope + _ENERGY_RTOL * abs(energy):
                accepted = True
                break
            t *= _BACKTRACK
        if not accepted:
            return _finish(problem, x, energies, grads, violations, False, opts,
                           "step collapse")
        x, energy = x_try, e_try
        grad = problem.gradient(x)
        energies.append(energy)
        grads.append(np.abs(grad).max())

    converged = grads[-1] <= opts.grad_tol
    return _finish(problem, x, energies, grads, violations, converged, opts,
                   "max iterations" if not converged else "gradient")


def gradient(chain: ChainState, opts: MinimizeOptions = None):
    """Analytic energy gradient over the standard free variables."""
    opts = opts or MinimizeOptions()
    problem = ChainProblem(chain, variable_tau=opts.variable_tau)
    return problem.gradient(problem.pack(chain))


def hessian(chain: ChainState, opts: MinimizeOptions = None):
    """Analytic energy Hessian (sparse CSR) over the standard free variables."""
    opts = opts or MinimizeOptions()
    problem = ChainProblem(chain, variable_tau=opts.variable_tau)
    dense = problem.hessian_dense(problem.pack(chain))
    return scipy.sparse.csr_matrix(dense)


def twin_chain(n, wells: WellPair, interface_column: int = 0,
               rescaled: bool = False) -> ChainState:
    """Laminate of the two variants meeting at one column, clamped to itself.

    Left branch samples U0 x, right branch Q U1 x + c with c chosen so both
    branches agree at the interface atom; tau is uniform.
    """
    if abs(interface_column) >= n:
        raise ValueError(f"interface column {interface_column} outside (-{n}, {n})")
    geom = LatticeGeometry(n=n, rescaled=rescaled)
    lam = geom.lambda_n
    A, B = wells.U0, wells.QU1
    offset = (A - B) @ np.array([interface_column * lam, 0.0])
    bc = BoundaryClamp.pieces(A, np.zeros(2), B, offset)
    ids = geom.atom_ids()
    x = np.stack([ids * lam, np.zeros_like(ids, dtype=float)], axis=-1)
    u = np.where((ids <= interface_column)[:, None], x @ A.T, x @ B.T + offset)
    return ChainState(geometry=geom, wells=wells, bc=bc,
                      u=u, theta=np.zeros(geom.atom_count))


def laminate_chain(n, wells: WellPair, lam_fraction: float, variant: int = 0,
                   rescaled: bool = False) -> ChainState:
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
    geom = LatticeGeometry(n=n, rescaled=rescaled)
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


def preoptimize_middle(chain: ChainState, atom: int = 0,
                       opts: MinimizeOptions = None) -> ChainState:
    """Relax a single atom with everything else frozen (2-dof Newton)."""
    opts = opts or MinimizeOptions()
    sub = ChainProblem(chain, variable_tau=False, free_ids=[atom])
    report = newton_minimize(chain, opts, problem=sub)
    if not report.converged:
        warnings.warn(f"middle-atom preoptimization did not converge "
                      f"({report.stop_reason}); returning input unchanged")
        return chain
    return report.final_chain
