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
The stencil is affine in the row j, so a column's densities sum to a
polynomial of degree <= 8 in j, which a 5-node Gauss rule (`row_rule`, one
node when every slope is zero) sums exactly.  Every chain-variable total is
that one sum (`rule_total`): `chain_energy`'s total, `window_sum` (hence
`gamma`'s strips) and the Newton energy, so a solve's last energy is the
total `chain_energy` reports.  `chain_energy` builds the stencil of the
centers -n..n once and sums it in O(n).  `stencil_map` walks a stencil over
the whole site grid, for `EnergyBreakdown.local` on its first read and for
`analysis.classify`: a column broadcast when every slope is zero, a dense
grid otherwise.  No other module reads that layout; they call this module's
helpers for it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
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
    "row_rule",
    "rule_total",
    "grid_lines",
    "sites_reaching",
    "chain_energy",
    "lattice_energy",
    "field_local_grid",
    "window_sum",
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


# chain offsets of the stencil slots m, c, p (atoms i-1, i, i+1), on axis 0
SLOT_OFFSETS = np.array([[-1], [0], [1]])


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


# Gauss nodes per row rule: exact to degree 9 in j, above the degree 8 of the
# density's row sums and of every row sum the Newton derivatives take
_RULE_NODES = 5


def row_rule(j_lo, j_hi, flat=False):
    """Gauss nodes and weights of the uniform measure on the rows j_lo..j_hi.

    Golub-Welsch on the recurrence of the discrete Chebyshev (Gram)
    polynomials: alpha = (j_lo + j_hi)/2 and beta_k = k^2 (N^2 - k^2) /
    (4 (4k^2 - 1)) for N rows.  The min(5, N) nodes sum every polynomial of
    degree <= 9 in j exactly; with N <= 5 they are the rows themselves.
    flat (every slope zero, so nothing depends on j): one node, weight N.
    """
    rows = j_hi - j_lo + 1
    if flat:
        return np.zeros(1), np.array([float(rows)])
    k = np.arange(1.0, min(_RULE_NODES, rows))
    off = np.sqrt(k * k * (rows * rows - k * k) / (4.0 * (4.0 * k * k - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (j_lo + j_hi) + nodes, rows * vectors[0] ** 2


def rule_total(D, weights, scale):
    """fsum over nodes k of scale * weights[k] * fsum(D[:, k]), D (centers, nodes)."""
    return math.fsum(scale * w * math.fsum(D[:, k]) for k, w in enumerate(weights))


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
    """The total and the rescaled energy; the site grid and its row sums are
    built on first read.

    total = lam^2 * the row rule's sum for `chain_energy`, within a few ulp of
    the grid's sum, which `lattice_energy` takes; rescaled = total / lam.
    site_grid() builds `local`: `save_breakdown` and `find_good_lines` (through
    `row_sums` and `sites_reaching`) read it; `scan` and the `layers`
    reference read only the total, so they never build it.
    """

    site_grid: Callable[[], np.ndarray]
    total: float
    rescaled: float
    n: int
    lam: float
    a: float

    @cached_property
    def local(self):
        """local[k, l] = the density at chain index i = k - n, row j = l - n.

        A read-only broadcast of one density per column (O(n) memory) when
        every center is flat (fixed tau, zero angles); otherwise a dense grid.
        """
        return self.site_grid()

    @cached_property
    def row_sums(self):
        """row_sums[l] = fsum of row j = l - n, built on first read (by `find_good_lines`)."""
        x = broadcast_column(self.local)
        if x is None:  # a list per row: a whole-grid tolist() holds 32 bytes per site
            return np.array([math.fsum(col.tolist()) for col in self.local.T])
        return np.full(self.local.shape[1], math.fsum(x.tolist()))


# sites per stencil block: bounds the stencil and bracket temporaries
# (a few hundred bytes per site) while the output grids take a few bytes per site
_GRID_BLOCK = 1 << 15


def _center_stencils(chain: ChainState, i_lo, i_hi):
    """`slot_stencil`'s (base, slope) at centers i_lo..i_hi; past the chain, the clamp's."""
    u, theta = chain.atoms_at(np.arange(i_lo, i_hi + 1) + SLOT_OFFSETS)
    return slot_stencil(u, theta, chain.lam, chain.wells)[:2]


def stencil_map(stencil, per_site, dtype=float):
    """The grid of per_site(k, W) over a stencil's centers and the rows -n..n.

    stencil = (base, slope) of `_center_stencils` at the 2n+1 centers -n..n.
    W = [v+, v-, h+, h-] holds the stencils of centers k - n, shape (len(k),
    rows, 4, 2); per_site returns one value per stencil, shape (len(k), rows).
    If every slope is exactly zero (fixed tau, theta = 0) per_site sees each
    center once (rows = 1) and the grid is a read-only broadcast of one value
    per column (row stride 0, see `broadcast_column`).  Otherwise it is
    dense, filled in _GRID_BLOCK blocks.
    """
    base, slope = stencil
    k = np.arange(len(base))
    shape = (k.size, k.size)
    if not slope.any():
        return np.broadcast_to(per_site(k, base[:, None]).astype(dtype, copy=False), shape)
    grid = np.empty(shape, dtype=dtype)
    j = (k - k.size // 2).astype(float)[None, :, None, None]
    step = max(1, _GRID_BLOCK // k.size)
    for lo in range(0, k.size, step):
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


def _stencil_sum(stencil, j_lo, j_hi, weight, wells):
    """weight * the density of stencil's centers summed over rows j_lo..j_hi.

    `rule_total` sums the rule's nodes, one when every slope is zero, as the
    Newton energy does: O(centers).
    """
    base, slope = stencil
    nodes, weights = row_rule(j_lo, j_hi, flat=not slope.any())
    W = base[:, None] + nodes[:, None, None] * slope[:, None]
    return rule_total(density(W[..., :2, :], W[..., 2:, :], wells), weights, weight)


def chain_energy(chain: ChainState) -> EnergyBreakdown:
    """Energy evaluated directly in chain variables, in O(n): one stencil over
    the centers -n..n, its total by the row rule.  The site grid is
    `stencil_map`'s walk over that stencil, run on the first read of `local`."""
    n, lam, wells = chain.n, chain.lam, chain.wells
    stencil = _center_stencils(chain, -n, n)
    total = _stencil_sum(stencil, -n, n, lam ** 2, wells)

    def site_grid():
        return stencil_map(stencil, lambda k, W: density(W[..., :2, :], W[..., 2:, :], wells))

    return EnergyBreakdown(site_grid, total, total / lam, n, lam, wells.a)


def lattice_energy(field: LatticeField) -> EnergyBreakdown:
    """Energy evaluated from the reconstructed 2D positions, every site in one fsum."""
    local, lam = field_local_grid(field), field.lam
    total = lam * lam * math.fsum(itertools.chain.from_iterable(row.tolist() for row in local))
    return EnergyBreakdown(lambda: local, total, total / lam, field.n, lam, field.chain.wells.a)


def window_sum(chain: ChainState, i_lo, i_hi, j_lo, j_hi, weight=1.0):
    """weight * the density summed over centers i_lo..i_hi and rows j_lo..j_hi.

    Past the chain the stencil reads the clamp; the row rule sums it in O(centers).
    """
    return _stencil_sum(_center_stencils(chain, i_lo, i_hi), j_lo, j_hi, weight, chain.wells)


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
