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
`stencil_map` is the one walk of that stencil over a site grid: the whole
grid of `chain_energy` and of the well classification in `analysis.classify`,
and the translated windows of `window_sum`.  It decides once per grid: a
column broadcast when every stencil slope is zero, a dense grid otherwise.
No other module reads that layout; they call this module's helpers for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import GHOST, ChainState, LatticeField

__all__ = [
    "EnergyBreakdown",
    "brackets",
    "density",
    "slot_stencil",
    "stencil_map",
    "uniform_columns",
    "grid_lines",
    "sites_reaching",
    "chain_energy",
    "lattice_energy",
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


def slot_stencil(u, theta, lam, wells):
    """The stencil W = base + j * slope as (base, slope, t), each row-independent.

    u (3, c, 2) and theta (3, c): the slot atoms m = i-1, c = i, p = i+1 of c
    centers.  base and slope hold [v+, v-, h+, h-], shape (c, 4, 2); t holds
    the slots' extension vectors t = R(theta) tau, shape (c, 3, 2).
    """
    u_m, u_c, u_p = u
    t_m, t_c, t_p = wells.tau_at(theta)

    du_p = (u_p - u_c) / lam
    du_m = (u_m - u_c) / lam
    dt_p = t_p - t_c
    dt_m = t_m - t_c

    base = np.stack([du_p + t_p, du_m - t_m, du_p, du_m], axis=1)
    slope = np.stack([dt_p, dt_m, dt_p, dt_m], axis=1)
    return base, slope, np.stack([t_m, t_c, t_p], axis=1)


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
    """Per-site energies and the total; the row sums are built on first read.

    local[k, l] is the density at chain index i = k - n, row j = l - n.
    For a chain whose centers are all flat (fixed tau, zero angles) it is a
    read-only broadcast of one density per column, O(n) in memory; otherwise
    a dense grid.  total = lam^2 * sum(local); rescaled = total / lam.
    """

    local: np.ndarray
    total: float
    rescaled: float
    n: int
    lam: float
    a: float

    @cached_property
    def row_sums(self):
        """row_sums[l] = fsum of row j = l - n, built on first read (by `diagnose`)."""
        x = broadcast_column(self.local)
        if x is None:  # a list per row: a whole-grid tolist() holds 32 bytes per site
            return np.array([math.fsum(col.tolist()) for col in self.local.T])
        return np.full(self.local.shape[1], math.fsum(x.tolist()))


def _breakdown(local, n, lam, a):
    total = lam * lam * _site_sum(local)
    return EnergyBreakdown(local, total, total / lam, n, lam, a)


def _site_sum(local):
    """fsum of every site of the grid, row by row.

    A column broadcast whose width * x stays finite sums each row in O(1):
    Dekker's split x = hi + lo, hi the top 26 significand bits and lo the
    remaining 27 (exact: masking, then a Sterbenz subtraction), leaves
    width * hi and width * lo at most 52 and 53 bits for width < 2^26, so
    both products are exact and their sum is the row's exact sum.
    """
    x = broadcast_column(local)
    width = local.shape[1]
    with np.errstate(over="ignore"):
        if x is None or not np.isfinite(width * x).all():
            return math.fsum(itertools.chain.from_iterable(row.tolist() for row in local))
    hi = (x.view(np.int64) & ~np.int64((1 << 27) - 1)).view(np.float64)
    lo = x - hi
    # a zero lo adds nothing, and leaving it out keeps the sign of a -0.0 total
    return math.fsum((width * hi).tolist() + (width * lo[lo != 0.0]).tolist())


# sites per stencil block: bounds the stencil and bracket temporaries
# (a few hundred bytes per site) while the output grids take a few bytes per site
_GRID_BLOCK = 1 << 15


def stencil_map(chain: ChainState, per_site, dtype=float, ids=None, rows=None):
    """The grid of per_site(k, W) over centers ids and rows (both default -n..n).

    W = [v+, v-, h+, h-] holds the stencils of centers ids[k], shape (len(k),
    rows, 4, 2); per_site returns one value per stencil, shape (len(k), rows).
    An index past the chain reads the clamp.  If every slope is exactly zero
    (fixed tau, theta = 0) per_site sees each center once (rows = 1) and the
    grid is a read-only broadcast of one value per column (row stride 0, see
    `broadcast_column`).  Otherwise it is dense, filled in _GRID_BLOCK blocks.
    """
    full = np.arange(-chain.n, chain.n + 1)
    ids = full if ids is None else np.asarray(ids)
    rows = full if rows is None else np.asarray(rows)
    u, theta = chain.atoms_at(ids + np.array([[-1], [0], [1]]))
    base, slope, _ = slot_stencil(u, theta, chain.lam, chain.wells)
    k = np.arange(ids.size)
    shape = (ids.size, rows.size)
    if not slope.any():
        return np.broadcast_to(per_site(k, base[:, None]).astype(dtype, copy=False), shape)
    grid = np.empty(shape, dtype=dtype)
    j = rows.astype(float)[None, :, None, None]
    step = max(1, _GRID_BLOCK // rows.size)
    for lo in range(0, ids.size, step):
        blk = k[lo:lo + step]
        grid[blk] = per_site(blk, base[blk, None] + j * slope[blk, None])
    return grid


def broadcast_column(grid):
    """grid[:, 0] when every row of grid repeats one value (row stride 0), else None."""
    return grid[:, 0] if grid.strides[1] == 0 else None


def uniform_columns(grid):
    """Per chain column k, whether every site of grid[k] holds grid[k, 0]'s bits.

    All True on a column broadcast; a dense grid is compared in _GRID_BLOCK
    blocks, so no grid-sized temporary forms.  -0.0 next to +0.0 is not uniform.
    """
    if broadcast_column(grid) is not None:
        return np.ones(grid.shape[0], dtype=bool)
    bits = grid.view(f"u{grid.itemsize}")
    step = max(1, _GRID_BLOCK // grid.shape[1])
    return np.concatenate([(bits[lo:lo + step] == bits[lo:lo + step, :1]).all(axis=1)
                           for lo in range(0, len(bits), step)])


def grid_lines(grid, n, fmt):
    """The text lines of a site grid: the `i\\j` header, then `i,cells` per column.

    fmt formats one site value; a uniform column formats it once and repeats it.
    """
    width = grid.shape[1]
    yield "i\\j," + ",".join(str(j - n) for j in range(width)) + "\n"
    for k, (first, same) in enumerate(zip(grid[:, 0].tolist(), uniform_columns(grid).tolist())):
        if same:
            cell = fmt(first)
            body = (cell + ",") * (width - 1) + cell
        else:
            body = ",".join(map(fmt, grid[k].tolist()))
        yield f"{k - n},{body}\n"


def sites_reaching(local, level):
    """Per row j, the number of sites with local >= level.

    A column broadcast counts one column, so no (2n+1)^2 temporary forms.
    """
    col = broadcast_column(local)
    if col is None:
        return np.count_nonzero(local >= level, axis=0)
    return np.full(local.shape[1], np.count_nonzero(col >= level))


def _chain_densities(chain: ChainState, ids=None, rows=None):
    """`stencil_map` of the density: the chain-variable site grid."""
    return stencil_map(
        chain, lambda k, W: density(W[..., :2, :], W[..., 2:, :], chain.wells),
        ids=ids, rows=rows)


def chain_energy(chain: ChainState) -> EnergyBreakdown:
    """Total energy evaluated directly in chain variables, off `stencil_map`."""
    return _breakdown(_chain_densities(chain), chain.n, chain.lam, chain.wells.a)


def lattice_energy(field: LatticeField) -> EnergyBreakdown:
    """Total energy evaluated from the reconstructed 2D positions."""
    local = field_local_grid(field)
    return _breakdown(local, field.n, field.lam, field.chain.wells.a)


def window_sum(chain: ChainState, i_lo, i_hi, j_lo, j_hi, weight=1.0):
    """weight * sum of local densities over the index window (compensated)."""
    local = _chain_densities(chain, np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1))
    return weight * _site_sum(local)


def default_jump_threshold(wells):
    """Density level below which a site cannot host a jump between the wells."""
    a2, b2 = wells.a ** 2, wells.b ** 2
    return ((b2 - a2) / (100.0 * (a2 + b2))) ** 4


@dataclass(frozen=True)
class ThresholdCensus:
    threshold: float
    site_count: int
    row_count: int


def local_energy_threshold_census(bd: EnergyBreakdown, threshold) -> ThresholdCensus:
    """Count sites with local >= threshold and rows whose lam-weighted sum reaches it."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return ThresholdCensus(
        threshold=float(threshold),
        site_count=int(sites_reaching(bd.local, threshold).sum()),
        row_count=int(np.count_nonzero(bd.lam * bd.row_sums >= threshold)))


def save_breakdown(bd: EnergyBreakdown, path, header=None):
    """Delimited-text export: summary record, then the local(i, j) matrix (`grid_lines`)."""
    g17 = "%.17g"
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header + "\n")
        fh.write("# energy-breakdown v1\n")
        fh.write(f"n={bd.n},a={g17 % bd.a},lambda={g17 % bd.lam},"
                 f"total={g17 % bd.total},rescaled={g17 % bd.rescaled}\n")
        fh.writelines(grid_lines(bd.local, bd.n, g17.__mod__))
