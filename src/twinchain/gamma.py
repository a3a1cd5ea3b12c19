"""Layer energies and the vertical averaging that feeds them.

Two pieces live here.  `average_down` trades the full-height energy of a
chain for a thin horizontal strip at a small premium, by scanning vertical
translations; it reports the translation j0 and the strip energy.
`estimate_layer` / `estimate_EK` compute boundary-layer and internal-layer
energies on rescaled half-open geometries by Newton descent with relaxed
row directions (the chains' stopping rule), one solve per height with the
clamp CLAMP_RATIO heights out.  The point reflection x -> -x, u -> -u keeps
the lattice, the density and every layer window, so B_minus(A, B, r) =
B_plus(B, A, -r) and C(A, B, r) = C(B, A, r).

Layer profiles stay localized near the interface, so a profile relaxed at
one height is close to the next height's solution.  Each height's solve
relaxes from the first admissible of three starts: the last converged
height's displacements from its linear ramp start and its angles, copied
by atom id onto this height's ramp start; for the B kinds, free atom -1
on the counted side's affine map, the zero-offset solution where it is
admissible; the ramp start itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import window_sum
from .lattice import BoundaryClamp, ChainState, LatticeGeometry
from .minimize import ChainProblem, newton_minimize
from .wells import WellPair

__all__ = [
    "AverageDownResult",
    "LayerEnergyEstimate",
    "LayerSpec",
    "average_down",
    "estimate_EK",
    "estimate_layer",
    "save_layer_estimates",
    "thin_strip_energy",
]

_E1 = np.array([1.0, 0.0])

LAYER_KINDS = ("B_plus", "B_minus", "C")

# clamp distance of a layer solve in units of its height, L = CLAMP_RATIO * n;
# interface forces keep the far columns warm (averaged tail energy 2.6e-5 to
# 8.9e-3 at this clamp), so estimates are compared at one fixed L/n.  L/n is the
# convergence parameter of a family whose L/n = 1 layer C is the variable-tau
# twin chain; layer C's E_inf (heights 40, 80, 160) is 28.4351114 at 12 (0.57 s
# for heights 10..160, 2-core machine) and 28.4351047 at 24 (1.04 s)
CLAMP_RATIO = 12


# ---------------------------------------------------------------------------
# vertical averaging


def thin_strip_energy(chain: ChainState, m: int, j0: int = 0) -> float:
    """Energy of the height-m strip centred on row j0, rows averaged by 1/m.

    The horizontal extent follows the translation: columns j0-n .. j0+n.
    With m = n and j0 = 0 this reproduces the rescaled chain energy.
    """
    n = chain.n
    return window_sum(chain, -n + j0, n + j0, j0 - m, j0 + m, weight=1.0 / m)


@dataclass(frozen=True, eq=False)
class AverageDownResult:
    j0: int
    input_energy: float
    strip_energy: float
    epsilon: float


def average_down(chain: ChainState, m: int, epsilon: float) -> AverageDownResult:
    """Find a vertical translation whose height-m strip energy is small.

    Guarantees strip_energy <= input_energy + epsilon provided
    n > m (1 + input_energy / epsilon); under that bound one of the
    floor((2n+1)/(2m+1)) disjoint strips must come in under the average.
    The disjoint-strip scan runs first; if the winner still misses the
    bound (possible at small m, where the 1/m row weight inflates every
    strip), every translation in range is tried before giving up.  The
    strip of translation j0 holds chain columns j0-n .. j0+n and rows
    j0-m .. j0+m.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = chain.n
    m = int(m)
    if not 1 <= m < n:
        raise ValueError("strip height m must satisfy 1 <= m < n")
    input_energy = thin_strip_energy(chain, n)
    bound = m * (1.0 + input_energy / epsilon)
    if not n > bound:
        raise ValueError(
            f"averaging needs n > m (1 + H/eps) = {bound:.6g}, chain has n = {n}")

    count = (2 * n + 1) // (2 * m + 1)
    centers = [-n + k * (2 * m + 1) + m for k in range(count)]
    energies = [thin_strip_energy(chain, m, j0) for j0 in centers]
    k = int(np.argmin(energies))
    j0, best = centers[k], energies[k]

    if best > input_energy + epsilon:
        span = n - m
        sweep = {j: thin_strip_energy(chain, m, j) for j in range(-span, span + 1)}
        j0, best = min(sweep.items(), key=lambda kv: (kv[1], abs(kv[0])))
        if best > input_energy + epsilon:
            raise RuntimeError(
                "no vertical translation meets the averaging bound: best strip "
                f"{best:.6g} exceeds {input_energy:.6g} + {epsilon:g}")

    return AverageDownResult(j0=int(j0), input_energy=input_energy,
                             strip_energy=float(best), epsilon=float(epsilon))


# ---------------------------------------------------------------------------
# layer problems


@dataclass(frozen=True)
class LayerSpec:
    """One layer energy problem on the rescaled (spacing-1) geometry.

    kind 'B_plus' clamps the centre column to the V_left affine map and the
    far right to V_right x + r_star, counting energy on the right half.
    'B_minus' (far left V_left x + r_star, centre column V_right, left half
    counted) is its point reflection, solved as B_plus(V_right, V_left,
    -r_star).  'C' clamps both far sides (left offset fixed at zero, right
    at r_star), counts everything, and C(A, B, r) = C(B, A, r).  L is the
    clamp distance, n the vertical averaging height; truncation needs L >= n.
    """

    kind: str
    V_left: np.ndarray
    V_right: np.ndarray
    r_star: np.ndarray = (0.0, 0.0)
    L: int = 48
    n: int = 16

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"kind must be one of {LAYER_KINDS}")
        if self.n < 2:
            raise ValueError("vertical height n must be at least 2")
        if self.L < self.n:
            raise ValueError("clamp distance L must be at least n")
        for name in ("V_left", "V_right"):
            M = np.asarray(getattr(self, name), dtype=float)
            if M.shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 matrix")
            object.__setattr__(self, name, M)
        r = np.asarray(self.r_star, dtype=float).reshape(2)
        object.__setattr__(self, "r_star", r)


@dataclass(frozen=True, eq=False)
class LayerEnergyEstimate:
    value: float
    n_sequence: tuple        # (n, estimate) pairs, nan where the solve failed
    converged: bool          # final two estimates within 2 percent


def _layer_problem(kind, V_left, V_right, r, L, n_v, wells):
    """Build the clamped chain and windowed problem for one layer solve."""
    geom = LatticeGeometry(n=L, rescaled=True)
    ids = geom.atom_ids()
    x = np.stack([ids.astype(float), np.zeros(ids.size)], axis=-1)
    r = np.asarray(r, dtype=float).reshape(2)
    if kind == "B_minus":  # its point reflection, see LayerSpec
        kind, V_left, V_right, r = "B_plus", V_right, V_left, -r
    bc = BoundaryClamp.pieces(V_left, (0.0, 0.0), V_right, r)

    omega = (V_left - V_right) @ _E1
    if kind == "C":
        # split column: continuity V_left x = V_right x + r along e1 fixes it
        den = float(omega @ omega)
        c = float(r @ omega) / den if den > 1e-24 else 0.0
        m = int(np.clip(round(c), -L + 2, L - 2))
        free = np.arange(-L + 1, L)
        i_window = (-L - 1, L + 1)
    else:
        m = 0  # B_plus splits at the centre column
        # atom -1 is free because the counted centre column reaches it
        free = np.concatenate([[-1], np.arange(1, L)])
        i_window = (0, L + 1)
    # V_left up to column m, then V_right ramped from continuity at m to r
    ramp = np.clip((ids - m) / max(L - m, 1), 0.0, 1.0)[:, None]
    u = np.where((ids <= m)[:, None],
                 x @ V_left.T,
                 x @ V_right.T + m * omega + ramp * (r - m * omega))

    chain = ChainState(geometry=geom, wells=wells, bc=bc, u=u,
                       theta=np.zeros(geom.atom_count))
    problem = ChainProblem(chain, variable_tau=True, free_ids=free,
                           i_window=i_window, j_window=(-n_v, n_v),
                           scale=1.0 / n_v)
    return chain, problem


def _solve_layer(kind, V_left, V_right, r, L, n_v, wells, below=None):
    """One Newton solve from the first admissible start (see `estimate_layer`);
    returns (report, state).

    `below` is a lower height's state, copied by free atom id onto this
    height's ramp start (atoms it lacks keep the ramp).  report is None when
    no start is admissible.  state is (free ids, their (ux, uy, theta) minus
    the ramp start's) at the converged x, or `below` when the solve failed.
    """
    chain, problem = _layer_problem(kind, V_left, V_right, r, L, n_v, wells)
    ramp = problem.pack(chain)
    starts = []
    if below is not None:
        ids, shift = below
        x = ramp.reshape(-1, problem.nd).copy()
        x[np.isin(problem.free_ids, ids)] += shift[np.isin(ids, problem.free_ids)]
        starts.append(x.ravel())
    if kind != "C":
        x = ramp.copy()
        x[:2] = chain.bc.V_right @ (-1.0, 0.0)  # free ids are sorted, -1 first
        starts.append(x)
    starts.append(ramp)
    x = next((x for x in starts if problem.admissible(x)), None)
    if x is None:
        return None, below
    report = newton_minimize(chain if x is ramp else problem.apply(x), problem=problem)
    if not report.converged:
        return report, below
    shift = problem.pack(report.final_chain) - ramp
    return report, (problem.free_ids, shift.reshape(-1, problem.nd))


def estimate_layer(spec: LayerSpec, wells: WellPair, *,
                   n_sequence=None) -> LayerEnergyEstimate:
    """Layer energy by Newton descent over a refining sequence of heights.

    Solves the clamped problem once at each height n_v in n_sequence
    (default n/4, n/2 and n, at least 4 and 6, at most n), at the offset
    spec.r_star and with the clamp at ceil(L/n) * n_v, so that every height
    sees the same L/n.  Each height starts from the last converged height
    below it, else (B kinds) from atom -1 on the counted side's map, else
    from the linear ramp, whichever is admissible first (`_solve_layer`).
    Every solve stops by `newton_minimize`'s rule; a failed height is recorded
    as nan and left out of the value, which is nan if no height converged.
    """
    if n_sequence is None:
        n_sequence = sorted(v for v in {max(4, spec.n // 4), max(6, spec.n // 2),
                                        spec.n} if v <= spec.n)
    n_sequence = [int(v) for v in n_sequence]
    if not n_sequence:
        raise ValueError("the height sequence is empty")
    if any(v < 2 for v in n_sequence):
        raise ValueError("heights must be at least 2")
    ratio = math.ceil(spec.L / spec.n)  # LayerSpec ensures L >= n

    records = []
    below = None
    for n_v in n_sequence:
        report, below = _solve_layer(spec.kind, spec.V_left, spec.V_right,
                                     spec.r_star, ratio * n_v, n_v, wells, below)
        ok = report is not None and report.converged
        # the energy at the final x, the x that final_chain packs back to
        records.append((n_v, float(report.energy_history[-1]) if ok else math.nan))

    valid = [(n_v, e) for n_v, e in records if math.isfinite(e)]
    value = valid[-1][1] if valid else math.nan
    converged = (len(valid) >= 2
                 and abs(valid[-1][1] - valid[-2][1])
                 <= 0.02 * max(abs(valid[-1][1]), 1e-9))
    return LayerEnergyEstimate(value=float(value),
                               n_sequence=tuple(records),
                               converged=converged)


def _is_well(M, wells):
    return (np.abs(M - wells.U0).max() <= 1e-9
            or np.abs(M - wells.QU1).max() <= 1e-9)


def estimate_EK(V_sequence, wells: WellPair, *, n: int = 16, n_sequence=None):
    """Total layer energy of a gradient sequence V_0 .. V_K, and its parts.

    The sequence must start and end at the same boundary gradient and pass
    through wells in between.  The total splits exactly into one right
    boundary layer, K-2 internal layers and one left boundary layer, each
    solved at zero offset with the clamp CLAMP_RATIO * n out.  Returns
    (total, parts) with parts the (spec, estimate) pair of every layer in
    order.  By B_plus(A, B, 0) = B_minus(B, A, 0) and C(A, B, 0) = C(B, A, 0),
    the reversed sequence has the same parts in reverse order.
    """
    V = [np.asarray(M, dtype=float).reshape(2, 2) for M in V_sequence]
    if len(V) < 3:
        raise ValueError("need at least V_0, V_1, V_K")
    if np.abs(V[0] - V[-1]).max() > 1e-12:
        raise ValueError("sequence must start and end at the same gradient")
    for M in V[1:-1]:
        if not _is_well(M, wells):
            raise ValueError("interior gradients must sit on the wells")

    L = CLAMP_RATIO * n
    specs = [LayerSpec("B_plus", V[0], V[1], (0.0, 0.0), L, n)]
    for s in range(1, len(V) - 2):
        specs.append(LayerSpec("C", V[s], V[s + 1], (0.0, 0.0), L, n))
    specs.append(LayerSpec("B_minus", V[-2], V[-1], (0.0, 0.0), L, n))

    parts = [estimate_layer(spec, wells, n_sequence=n_sequence) for spec in specs]
    return float(sum(p.value for p in parts)), tuple(zip(specs, parts))


def save_layer_estimates(entries, path, header=None):
    """Write layer estimates as a flat csv-ish table, one row per height."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("# layer-estimates v2")
    lines.append("kind,V_left,V_right,r_star,n,estimate")
    for spec, est in entries:
        flat_l = " ".join(f"{v:.17g}" for v in spec.V_left.ravel())
        flat_r = " ".join(f"{v:.17g}" for v in spec.V_right.ravel())
        flat_o = " ".join(f"{v:.17g}" for v in spec.r_star)
        for n_v, e in est.n_sequence:
            lines.append(f"{spec.kind},{flat_l},{flat_r},{flat_o},{n_v},{e:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
