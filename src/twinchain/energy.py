"""Two-well lattice energy: density, per-site grids, totals and diagnostics.

The density is a product of two bracket sums over all signed neighbor
differences of a site.  With v_s = (u^{i,j+s} - u^{ij})/lam (s = +1, -1) and
h_s = (u^{i+s,j} - u^{ij})/lam:

    bracket(alpha, beta) = sum_s (|v_s|^2 - alpha)^2 + sum_s (|h_s|^2 - beta)^2
                           + sum_{s,t} (v_s . h_t)^2
    density = bracket(a^2, b^2) * bracket(b^2, a^2)

The first bracket vanishes exactly on SO(2)U1, the second on SO(2)U0, so the
product vanishes precisely on the union of the wells.  Cross terms enumerate
all four sign pairs.

Two evaluation routes exist on purpose: `lattice_energy` differences the
reconstructed 2D positions, while `chain_energy` works directly in chain
variables (du, per-column tau vectors, row index j) without materializing the
lattice.  They agree to rounding and cross-validate each other.  Both feed
their differences to one bracket kernel (`brackets`), and the chain-variable
stencil (`slot_stencil`) is the one the Newton derivatives differentiate.
`stencil_grid` walks that stencil over the whole site grid once for
`chain_energy` and for the well classification in `analysis.classify`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import GHOST, ChainState, LatticeField

__all__ = [
    "EnergyBreakdown",
    "brackets",
    "density",
    "affine_stencil",
    "slot_stencil",
    "stencil_grid",
    "chain_energy",
    "lattice_energy",
    "chain_local_grid",
    "field_local_grid",
    "window_sum",
    "local_energy_threshold_census",
    "default_jump_threshold",
    "save_breakdown",
]


def brackets(v, h, wells):
    """Per-site parts of the density, shared by every evaluation route.

    v and h carry the +/- difference vectors on axis -2 (order [plus,
    minus]); leading axes broadcast.  Returns q_s = |v_s|^2 and r_t = |h_t|^2
    (shape (..., 2)), the v.h block X[s, t] = v_s . h_t (shape (..., 2, 2))
    and the brackets B1 = bracket(a^2, b^2), B2 = bracket(b^2, a^2).
    """
    a2 = wells.a * wells.a
    b2 = wells.b * wells.b
    q = (v * v).sum(axis=-1)
    r = (h * h).sum(axis=-1)
    # the sum einsum forms, several times faster on these 2-long axes; only the
    # sign of a zero entry can differ, which no bracket or derivative sees
    X =v[..., :, None, 0] * h[..., None, :, 0] + v[..., :, None, 1] * h[..., None, :, 1]
    cross2 = (X * X).sum(axis=(-2, -1))
    B1 = ((q - a2) ** 2).sum(axis=-1) + ((r - b2) ** 2).sum(axis=-1) + cross2
    B2 = ((q - b2) ** 2).sum(axis=-1) + ((r - a2) ** 2).sum(axis=-1) + cross2
    return q, r, X, B1, B2


def density(vdiffs, hdiffs, wells):
    """Two-well density from signed neighbor differences.

    vdiffs and hdiffs carry the +/- difference vectors on axis -2 (order
    [plus, minus]); leading axes broadcast.  Returns a float for single sites.
    """
    v = np.asarray(vdiffs, dtype=float)
    h = np.asarray(hdiffs, dtype=float)
    *_, B1, B2 = brackets(v, h, wells)
    out = B1 * B2
    return float(out) if out.ndim == 0 else out


def affine_stencil(chain: ChainState, ids):
    """The stencil W = base + j * slope as (base, slope, t), each row-independent.

    ids: chain indices of the summand centers (1D).  base and slope hold the
    difference vectors [v+, v-, h+, h-], shape (len(ids), 4, 2); t holds the
    extension vectors t = R(theta) tau of the stencil's slots (m = atom i-1,
    c = atom i, p = atom i+1, in that order), shape (len(ids), 3, 2).
    """
    u, theta = chain.atoms_at(np.asarray(ids) + np.array([[-1], [0], [1]]))
    return slot_stencil(u, theta, chain.lam, chain.wells)


def slot_stencil(u, theta, lam, wells):
    """`affine_stencil` from the slot atoms: u (3, m, 2) and theta (3, m), slots m, c, p."""
    u_m, u_c, u_p = u
    t_m, t_c, t_p = wells.tau_at(theta)

    du_p = (u_p - u_c) / lam
    du_m = (u_m - u_c) / lam
    dt_p = t_p - t_c
    dt_m = t_m - t_c

    base = np.stack([du_p + t_p, du_m - t_m, du_p, du_m], axis=1)
    slope = np.stack([dt_p, dt_m, dt_p, dt_m], axis=1)
    return base, slope, np.stack([t_m, t_c, t_p], axis=1)


def chain_local_grid(chain: ChainState, ids, j_rows):
    """Per-site densities evaluated in chain variables; shape (len(ids), len(j_rows))."""
    base, slope, _ = affine_stencil(chain, ids)
    j = np.asarray(j_rows, dtype=float)[None, :, None, None]
    W = base[:, None] + j * slope[:, None]
    return density(W[..., :2, :], W[..., 2:, :], chain.wells)


def field_local_grid(field: LatticeField):
    """Per-site densities from reconstructed positions, i and j in [-n, n]."""
    n, lam = field.n, field.lam
    pos = field.positions
    lo = GHOST  # storage offset of atom -n
    hi = lo + 2 * n + 1
    center = pos[lo:hi, 1:-1]
    v_p = (pos[lo + 1:hi + 1, 2:] - center) / lam
    v_m = (pos[lo - 1:hi - 1, :-2] - center) / lam
    h_p = (pos[lo + 1:hi + 1, 1:-1] - center) / lam
    h_m = (pos[lo - 1:hi - 1, 1:-1] - center) / lam
    v = np.stack([v_p, v_m], axis=-2)
    h = np.stack([h_p, h_m], axis=-2)
    return density(v, h, field.chain.wells)


@dataclass(frozen=True, eq=False)
class EnergyBreakdown:
    """Per-site energies and their reductions.

    local[k, l] is the density at chain index i = k - n, row j = l - n.
    total = lam^2 * sum(local); rescaled = total / lam.
    """

    local: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    total: float
    rescaled: float
    n: int
    lam: float
    a: float

    def local_at(self, i, j):
        return self.local[i + self.n, j + self.n]


def _breakdown(local, n, lam, a):
    # every sum is an fsum, the correctly rounded exact sum, so the order and
    # grouping of its terms never shows.  A grid row whose values are bitwise
    # equal (each center of a fixed-tau chain at theta = 0) is summed in O(1):
    # its sum width * x is one correctly rounded multiply, and its exact value
    # splits into two floats for the total.  Other rows go site by site, one
    # list at a time: a whole-grid tolist() would hold 32 bytes per site
    width = local.shape[1]
    x = local[:, 0]
    # fsum of exact zeros is +0.0 (the sum of a row of -0.0); adding fsum's
    # own result for -0.0 keeps every other value as it is
    with np.errstate(over="ignore"):
        col_sums = width * x + math.fsum([-0.0])
    bits = local.view(np.int64)
    flat = (bits == bits[:, :1]).all(axis=1) & np.isfinite(col_sums)
    varying = np.flatnonzero(~flat)
    for k in varying:
        col_sums[k] = math.fsum(local[k].tolist())
    if varying.size:
        row_sums = np.array([math.fsum(col.tolist()) for col in local.T])
    else:
        row_sums = np.full(width, math.fsum(x.tolist()))
    total = lam * lam * math.fsum(itertools.chain(
        _exact_multiples(x[flat], width),
        itertools.chain.from_iterable(local[k].tolist() for k in varying)))
    return EnergyBreakdown(local=local, row_sums=row_sums, col_sums=col_sums,
                           total=total, rescaled=total / lam, n=n, lam=lam, a=a)


def _exact_multiples(x, width):
    """Floats whose exact sum is sum(width * x), for finite x and width < 2^26.

    Dekker's split x = hi + lo with hi the top 26 significand bits and lo the
    remaining 27 (exact: masking, then a Sterbenz subtraction).  width * hi
    and width * lo then need at most 52 and 53 bits, so both products are
    exact, barring overflow.
    """
    hi = (x.view(np.int64) & ~np.int64((1 << 27) - 1)).view(np.float64)
    lo = x - hi
    # a zero lo adds nothing, and leaving it out keeps the sign of a -0.0 total
    return (width * hi).tolist() + (width * lo[lo != 0.0]).tolist()


# sites per stencil block: bounds the stencil and bracket temporaries
# (a few hundred bytes per site) while the output grids take a few bytes per site
_GRID_BLOCK = 1 << 15


def stencil_grid(chain: ChainState):
    """Walk the (2n+1)^2 site grid as (k, W): grid rows k = i + n, stencils W.

    W = [v+, v-, h+, h-] has shape (len(k), rows, 4, 2).  A center whose
    stencil slope is exactly zero (fixed tau and theta = 0 on its three
    columns) is the same on every row, so it comes once with rows = 1 and the
    caller broadcasts it down the column; the other centers come with all
    2n+1 rows, in blocks of about _GRID_BLOCK sites.
    """
    ids = np.arange(-chain.n, chain.n + 1)
    base, slope, _ = affine_stencil(chain, ids)
    flat = ~slope.any(axis=(1, 2))
    yield np.flatnonzero(flat), base[flat, None]
    rest = np.flatnonzero(~flat)
    j = ids.astype(float)[None, :, None, None]
    step = max(1, _GRID_BLOCK // ids.size)
    for k in range(0, rest.size, step):
        blk = rest[k:k + step]
        yield blk, base[blk, None] + j * slope[blk, None]


def chain_energy(chain: ChainState) -> EnergyBreakdown:
    """Total energy evaluated directly in chain variables, off `stencil_grid`."""
    size = 2 * chain.n + 1
    local = np.empty((size, size))
    for k, W in stencil_grid(chain):
        local[k] = density(W[..., :2, :], W[..., 2:, :], chain.wells)
    return _breakdown(local, chain.n, chain.lam, chain.wells.a)


def lattice_energy(field: LatticeField) -> EnergyBreakdown:
    """Total energy evaluated from the reconstructed 2D positions."""
    local = field_local_grid(field)
    return _breakdown(local, field.n, field.lam, field.chain.wells.a)


def window_sum(chain: ChainState, i_lo, i_hi, j_lo, j_hi, weight=1.0):
    """weight * sum of local densities over the index window (compensated)."""
    ids = np.arange(i_lo, i_hi + 1)
    rows = np.arange(j_lo, j_hi + 1)
    local = chain_local_grid(chain, ids, rows)
    return weight * math.fsum(local.ravel(order="C"))


def default_jump_threshold(wells):
    """Density level below which a site cannot host a jump between the wells."""
    a2, b2 = wells.a ** 2, wells.b ** 2
    return ((b2 - a2) / (100.0 * (a2 + b2))) ** 4


@dataclass(frozen=True)
class ThresholdCensus:
    threshold: float
    site_count: int
    row_count: int
    sites: list
    rows: list


def local_energy_threshold_census(bd: EnergyBreakdown, threshold) -> ThresholdCensus:
    """Sites with local >= threshold and rows whose lam-weighted sum reaches it."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    n = bd.n
    hot = np.argwhere(bd.local >= threshold)
    sites = [(int(k) - n, int(l) - n) for k, l in hot]
    hot_rows = np.nonzero(bd.lam * bd.row_sums >= threshold)[0]
    rows = [int(l) - n for l in hot_rows]
    return ThresholdCensus(threshold=float(threshold), site_count=len(sites),
                           row_count=len(rows), sites=sites, rows=rows)


def save_breakdown(bd: EnergyBreakdown, path, header=None):
    """Delimited-text export: summary record, then the local(i, j) matrix.

    Rows are written as they are formatted.  A row whose values are bitwise
    equal (so -0.0 and +0.0 differ) is formatted once.
    """
    g17 = "%.17g"
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header + "\n")
        fh.write("# energy-breakdown v1\n")
        fh.write(f"n={bd.n},a={g17 % bd.a},lambda={g17 % bd.lam},"
                 f"total={g17 % bd.total},rescaled={g17 % bd.rescaled}\n")
        width = bd.local.shape[1]
        fh.write("i\\j," + ",".join(str(j - bd.n) for j in range(width)) + "\n")
        for k, row in enumerate(bd.local):
            bits = row.view(np.int64)
            if (bits == bits[0]).all():
                body = ",".join([g17 % row[0]] * width)
            else:
                body = ",".join(map(g17.__mod__, row.tolist()))
            fh.write(f"{k - bd.n},{body}\n")
