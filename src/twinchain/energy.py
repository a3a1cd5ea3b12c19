"""Two-well lattice energy: density, stencil walks, column tables, totals and diagnostics.

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
centers -n..n once and sums it in O(n).  The same degree bound makes a
column's densities at nine rows (`sample_rows`) determine every row, so
`save_breakdown` writes one O(1) row per column: its raw sum and those nine
values, taken from the stencil on the first read of
`EnergyBreakdown.columns`.  No site grid is built: `row_reduction`
takes each row's fsum and its count of sites at or above a level (for
`analysis.find_good_lines`) from one density per column when every slope
is zero, and otherwise in blocks of whole rows.  `column_blocks` yields
the stencil over every site in blocks of whole columns (one block of one
row when every slope is zero), for `analysis.classify`, which keeps only
per-column results.  No other module reads the stencil layout.
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
    "column_blocks",
    "row_rule",
    "rule_total",
    "sample_rows",
    "row_reduction",
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


def sample_rows(n):
    """The nine rows j_k = round(n (k - 4) / 4), k = 0..8, of the breakdown's columns.

    Distinct for n >= 4, with -n, 0 and n among them.  A column's density is
    a polynomial of degree <= 8 in j, so its values there determine every row.
    """
    return [round(n * (k - 4) / 4) for k in range(9)]


@dataclass(frozen=True, eq=False)
class EnergyBreakdown:
    """The total and the rescaled energy; the column table is built on first read.

    total = lam^2 * the row rule's sum for `chain_energy`, within a few ulp of
    the grid's sum, which `lattice_energy` takes; rescaled = total / lam.
    column_table() builds `columns`, which `save_breakdown` writes; `scan`
    and the `layers` reference read only the total, so they never build it.
    """

    total: float
    rescaled: float
    n: int
    lam: float
    a: float
    column_table: Callable[[], tuple[np.ndarray, np.ndarray]]

    @cached_property
    def columns(self):
        """(column_sum, samples) per chain column i = k - n, built on first read.

        column_sum[k] is the raw density summed down column k, so lam^2 *
        fsum(column_sum) is the total within a few ulp; samples[k, m] is the
        density at row sample_rows(n)[m].
        """
        return self.column_table()


# sites per stencil block, but at least one whole row or column: bounds the
# stencil and bracket temporaries (a few hundred bytes per site) to under
# 1 MiB a block up to n = 1000, and to O(n) past it
_GRID_BLOCK = 1 << 11


def _center_stencils(chain: ChainState, i_lo, i_hi):
    """`slot_stencil`'s (base, slope) at centers i_lo..i_hi; past the chain, the clamp's."""
    u, theta = chain.atoms_at(np.arange(i_lo, i_hi + 1) + SLOT_OFFSETS)
    return slot_stencil(u, theta, chain.lam, chain.wells)[:2]


def column_blocks(chain: ChainState):
    """The stencil W = [v+, v-, h+, h-] of the centers -n..n on the rows -n..n,
    yielded as (cols, W) in blocks of whole columns: cols a slice of the
    column indices k (center k - n), W of shape (columns, rows, 4, 2).

    A flat stencil (every slope exactly zero: fixed tau, theta = 0) is the
    same on every row, so one block holds every column with rows = 1.
    Otherwise the blocks hold about _GRID_BLOCK sites each.
    """
    n = chain.n
    base, slope = _center_stencils(chain, -n, n)
    if not slope.any():
        yield slice(None), base[:, None]
        return
    j = np.arange(-n, n + 1, dtype=float)[None, :, None, None]
    step = max(1, _GRID_BLOCK // len(base))
    for lo in range(0, len(base), step):
        cols = slice(lo, lo + step)
        yield cols, base[cols, None] + j * slope[cols, None]


def row_reduction(chain: ChainState, level):
    """Per row j = l - n of the site grid: the fsum of its 2n+1 densities and
    the number of them >= level, as two arrays of length 2n+1.

    A flat stencil (every slope zero) has one density per column on every
    row, so one column gives every row.  Otherwise the rows are walked in
    blocks of whole rows of about _GRID_BLOCK sites; no grid forms.
    """
    n, wells = chain.n, chain.wells
    base, slope = _center_stencils(chain, -n, n)
    m = 2 * n + 1
    if not slope.any():
        col = density(base[:, :2], base[:, 2:], wells)
        return np.full(m, math.fsum(col.tolist())), np.full(m, np.count_nonzero(col >= level))
    sums, counts = np.empty(m), np.empty(m, dtype=int)
    j = np.arange(-n, n + 1, dtype=float)[:, None, None, None]
    step = max(1, _GRID_BLOCK // m)
    for lo in range(0, m, step):
        W = base + j[lo:lo + step] * slope
        rows = density(W[..., :2, :], W[..., 2:, :], wells)
        sums[lo:lo + step] = [math.fsum(row) for row in rows.tolist()]
        counts[lo:lo + step] = np.count_nonzero(rows >= level, axis=1)
    return sums, counts


def _node_densities(stencil, j_lo, j_hi, wells):
    """The density of stencil's centers at the nodes of `row_rule` over rows
    j_lo..j_hi, shape (centers, nodes), and the rule's weights.

    One node when every slope is zero, as in the Newton energy: O(centers).
    """
    base, slope = stencil
    nodes, weights = row_rule(j_lo, j_hi, flat=not slope.any())
    W = base[:, None] + nodes[:, None, None] * slope[:, None]
    return density(W[..., :2, :], W[..., 2:, :], wells), weights


def chain_energy(chain: ChainState) -> EnergyBreakdown:
    """Energy evaluated directly in chain variables, in O(n): one stencil over
    the centers -n..n, its total by the row rule.  The column table comes
    from the same stencil in O(n), on the first read of `columns`."""
    n, lam, wells = chain.n, chain.lam, chain.wells
    stencil = _center_stencils(chain, -n, n)
    D, weights = _node_densities(stencil, -n, n, wells)
    total = rule_total(D, weights, lam ** 2)

    def column_table():
        # the rule's nodes sum each column: exact for its degree-8 polynomial
        sums = np.array([math.fsum(row) for row in (D * weights).tolist()])
        base, slope = stencil
        if not slope.any():  # one node at j = 0: each column's one density
            return sums, np.broadcast_to(D, (len(D), 9))
        # the expression `row_reduction` evaluates at rows j, so the site grid's bits
        j = np.array(sample_rows(n), dtype=float)[None, :, None, None]
        W = base[:, None] + j * slope[:, None]
        return sums, density(W[..., :2, :], W[..., 2:, :], wells)

    return EnergyBreakdown(total, total / lam, n, lam, wells.a, column_table)


def lattice_energy(field: LatticeField) -> EnergyBreakdown:
    """Energy evaluated from the reconstructed 2D positions, every site in one
    fsum; the column table is read off the grid."""
    local, lam, n = field_local_grid(field), field.lam, field.n
    total = lam * lam * math.fsum(itertools.chain.from_iterable(row.tolist() for row in local))

    def column_table():
        sums = np.array([math.fsum(col.tolist()) for col in local])
        return sums, local[:, np.add(sample_rows(n), n)]

    return EnergyBreakdown(total, total / lam, n, lam, field.chain.wells.a, column_table)


def window_sum(chain: ChainState, i_lo, i_hi, j_lo, j_hi, weight=1.0):
    """weight * the density summed over centers i_lo..i_hi and rows j_lo..j_hi.

    Past the chain the stencil reads the clamp; the row rule sums it in O(centers).
    """
    return rule_total(*_node_densities(_center_stencils(chain, i_lo, i_hi), j_lo, j_hi,
                                       chain.wells), weight)


def save_breakdown(bd: EnergyBreakdown, path, header=None):
    """Delimited-text export, energy-breakdown v2: the summary record, then
    one row per chain column i = -n..n (`EnergyBreakdown.columns`).

    A row holds i, the column's raw density sum and its density at the nine
    rows of `sample_rows`, from which degree-8 interpolation rebuilds every
    row.  A row whose nine values share their bits formats the value once.
    """
    g17 = "%.17g"
    sums, samples = bd.columns
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header + "\n")
        fh.write("# energy-breakdown v2\n")
        fh.write(f"n={bd.n},a={g17 % bd.a},lambda={g17 % bd.lam},"
                 f"total={g17 % bd.total},rescaled={g17 % bd.rescaled}\n")
        fh.write("i,column_sum," + ",".join(f"j={j}" for j in sample_rows(bd.n)) + "\n")
        bits = samples.view(np.uint64)  # -0.0 next to +0.0 is not one value
        uniform = (bits == bits[:, :1]).all(axis=1)
        rows = zip(sums.tolist(), samples[:, 0].tolist(), uniform.tolist())
        for k, (column_sum, first, same) in enumerate(rows):
            if same:
                cell = g17 % first
                body = (cell + ",") * 8 + cell
            else:
                body = ",".join(map(g17.__mod__, samples[k].tolist()))
            fh.write(f"{k - bd.n},{g17 % column_sum},{body}\n")
