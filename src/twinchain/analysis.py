"""Well classification, interface detection, and decay diagnostics.

Everything here reduces chains to the quantities one actually looks at:
which well each cell sits in, where the phase interfaces are, how fast a
perturbation decays along the chain, and which horizontal rows are quiet
enough to section the strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import column_blocks, row_reduction
from .lattice import ChainState
from .wells import WellPair, dist_to_well

__all__ = [
    "WellClassification",
    "InterfaceRecord",
    "DecayFit",
    "GoodLines",
    "GoodLineFailure",
    "classify",
    "interface_positions",
    "deviation_profile",
    "fit_exponential",
    "find_good_lines",
    "save_classification",
    "save_profile",
]

TIE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WellClassification:
    """Per-column nearest-well runs, and each column's largest and mean square
    distance to its cells' wells.

    runs[k] holds the cells of chain column i = k - n as (well id, count)
    runs down the column from row j = -n, the counts summing to 2n+1; an
    equidistant cell (within TIE_TOL) gets well 0.
    column_distance[k] is the largest orbit distance from a cell of column k
    to its labelled well, and column_mean_sq[k] the mean of its square over
    the column's cells.
    """

    runs: tuple
    column_distance: np.ndarray
    column_mean_sq: np.ndarray
    n: int
    lam: float


def classify(chain: ChainState, wells: WellPair) -> WellClassification:
    """Assign every gradient cell to its nearest energy well.

    The cell gradient at (i, j) is [h+ | v+] of the stencil centered at
    atom i on row j, read off `energy.column_blocks` block by block; each
    cell depends on its own gradient only.  A block of one row (a flat
    stencil) gives each column one run of 2n+1.
    """
    m = 2 * chain.n + 1
    column_distance = np.empty(m)
    column_mean_sq = np.empty(m)
    runs = []
    for cols, W in column_blocks(chain):
        grads = W[..., 2::-2, :].swapaxes(-1, -2)  # columns h+, v+
        d0, _ = dist_to_well(grads, wells.U0)
        d1, _ = dist_to_well(grads, wells.U1)
        pick1 = (np.abs(d0 - d1) > TIE_TOL) & (d1 < d0)
        dist = np.where(pick1, d1, d0)
        column_distance[cols] = dist.max(axis=1)
        column_mean_sq[cols] = (dist * dist).mean(axis=1)
        runs.extend(_column_runs(pick1.view(np.int8), m))
    return WellClassification(runs=tuple(runs), column_distance=column_distance,
                              column_mean_sq=column_mean_sq, n=chain.n, lam=chain.lam)


def _column_runs(ids, m):
    """Per row of the 0/1 ids (columns, rows), its (id, count) runs down m cells.

    A uniform row, such as the one row of a flat block, is one run from two
    shared tuples, with no numpy call; a mixed row is cut where its id changes.
    """
    whole = (((0, m),), ((1, m),))
    rows = ids.shape[1]
    runs = []
    for k, ones in enumerate(ids.sum(axis=1).tolist()):
        if ones in (0, rows):
            runs.append(whole[ones > 0])
            continue
        col = ids[k]
        cuts = [0, *(np.flatnonzero(col[1:] != col[:-1]) + 1).tolist(), m]
        runs.append(tuple((int(col[lo]), hi - lo) for lo, hi in zip(cuts, cuts[1:])))
    return runs


@dataclass(frozen=True)
class InterfaceRecord:
    """One gap between two single-well column runs, in continuum coordinates."""

    x: float
    left_well: int
    right_well: int
    width_in_atoms: int


def interface_positions(cls: WellClassification, tol: float):
    """Interfaces as gaps between maximal runs of single-well columns.

    A column counts as "in" a well when it is one run of that well id with
    distance <= tol; anything else is layer material.  Cell i spans
    [i, i+1] in atom units, so the interface coordinate is the midpoint of
    the touching interval ends; width reports the layer columns in the gap.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = cls.n
    one_run = np.array([len(col) == 1 for col in cls.runs], dtype=bool)
    runs = []  # (well, first_i, last_i)
    for k in np.flatnonzero((cls.column_distance <= tol) & one_run).tolist():
        i, w = k - n, cls.runs[k][0][0]
        if runs and runs[-1][0] == w and runs[-1][2] == i - 1:
            runs[-1][2] = i
        else:
            runs.append([w, i, i])
    records = []
    for left, right in zip(runs, runs[1:]):
        records.append(InterfaceRecord(
            x=cls.lam * 0.5 * (left[2] + 1 + right[1]),
            left_well=left[0],
            right_well=right[0],
            width_in_atoms=right[1] - left[2] - 1,
        ))
    return records


def deviation_profile(chain: ChainState, reference: ChainState):
    """Per-atom Euclidean distance between two chains' generator positions.

    Returns an (atom_count, 2) array of rows (i, deviation) covering every
    stored atom including the clamped ones.
    """
    if chain.n != reference.n or chain.geometry != reference.geometry:
        raise ValueError("chains must share the same lattice geometry")
    ids = chain.geometry.atom_ids().astype(float)
    dev = np.linalg.norm(chain.u - reference.u, axis=1)
    return np.stack([ids, dev], axis=1)


@dataclass(frozen=True, eq=False)
class DecayFit:
    """Least-squares exponential through a deviation profile window."""

    rate: float
    amplitude: float
    r_squared: float
    profile: np.ndarray

    def predict(self, i):
        return self.amplitude * np.exp(self.rate * np.asarray(i, dtype=float))


def fit_exponential(profile, window) -> DecayFit:
    """Fit deviation ~ amplitude * exp(rate * i) over window = (i_lo, i_hi).

    The fit is an ordinary least-squares line on (i, log deviation), so the
    window must contain at least 5 atoms and strictly positive deviations.
    """
    profile = np.asarray(profile, dtype=float)
    i_lo, i_hi = window
    rows = profile[(profile[:, 0] >= i_lo) & (profile[:, 0] <= i_hi)]
    if rows.shape[0] < 5:
        raise ValueError(f"window holds {rows.shape[0]} points, need at least 5")
    if (rows[:, 1] <= 0).any():
        raise ValueError("window contains nonpositive deviations")
    x, y = rows[:, 0], np.log(rows[:, 1])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return DecayFit(rate=float(slope), amplitude=float(np.exp(intercept)),
                    r_squared=r2, profile=rows)


@dataclass(frozen=True)
class GoodLines:
    """Three equally spaced quiet rows, one per band."""

    j_minus: int
    j_zero: int
    j_plus: int


@dataclass(frozen=True)
class GoodLineFailure:
    """Why no quiet-row triple exists."""

    reason: str


def find_good_lines(chain: ChainState, alpha: float = 0.4, delta: float = 0.1):
    """Pick rows j_minus < j_zero < j_plus that are quiet in two senses.

    A row j qualifies when its lam-weighted energy sum is <= n^-alpha and at
    most n^alpha / delta of its sites reach n^-alpha (both per row from one
    `energy.row_reduction`).  The rows must be equally spaced with j_minus
    in [-n, -n+2*delta*n], j_zero in [-delta*n, delta*n], j_plus mirrored.  Returns GoodLines, or a
    GoodLineFailure naming the binding condition.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < delta < 0.25:
        raise ValueError("delta must lie in (0, 1/4)")
    n = chain.n
    sum_cap = float(n) ** (-alpha)
    soft_cap = float(n) ** alpha / delta
    row_sums, reaching = row_reduction(chain, sum_cap)
    sum_ok = chain.lam * row_sums <= sum_cap
    soft_ok = reaching <= soft_cap
    ok = sum_ok & soft_ok

    wide = int(math.floor(2 * delta * n))
    half = int(math.floor(delta * n))
    bands = {
        "minus": range(-n, -n + wide + 1),
        "zero": range(-half, half + 1),
        "plus": range(n - wide, n + 1),
    }
    good = {label: [j for j in band if ok[j + n]] for label, band in bands.items()}

    if all(good.values()):
        plus_set = set(good["plus"])
        s_mid = n - 0.5 * wide
        best = None
        for j0 in sorted(good["zero"], key=lambda j: (abs(j), j)):
            for jm in good["minus"]:
                s = j0 - jm
                if s > 0 and j0 + s in plus_set:
                    key = (abs(j0), abs(s - s_mid), s)
                    if best is None or key < best[0]:
                        best = (key, (jm, j0, j0 + s))
        if best is not None:
            jm, j0, jp = best[1]
            for j in (jm, j0, jp):  # claimed conditions re-verified
                assert ok[j + n], "selected row fails its own conditions"
            return GoodLines(j_minus=jm, j_zero=j0, j_plus=jp)
        return GoodLineFailure("no equally spaced triple across the bands")
    label = next(k for k, v in good.items() if not v)
    band = np.asarray(bands[label]) + n
    checks = [("row-sum bound", sum_ok), ("spread-count bound", soft_ok)]
    name = next((nm for nm, hit in checks if not hit[band].any()), "combined conditions")
    return GoodLineFailure(f"no row in band '{label}' satisfies the {name}")


def save_classification(cls: WellClassification, path, header=None):
    """Delimited export, well-classification v2: one row per chain column
    i = -n..n holding the runs of equal well id down the column from j = -n,
    each as id:count, joined by ';'."""
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header + "\n")
        fh.write("# well-classification v2\n")
        fh.write(f"n={cls.n},lambda={'%.17g' % cls.lam}\n")
        fh.write("i,runs\n")
        text = {}  # each distinct column's runs are formatted once
        for i, col in enumerate(cls.runs, -cls.n):
            if col not in text:
                text[col] = ";".join(f"{w}:{count}" for w, count in col)
            fh.write(f"{i},{text[col]}\n")


def save_profile(fit: DecayFit, path, header=None):
    """Delimited export of the fitted window: i, deviation, log, fitted."""
    g17 = "%.17g"
    lines = []
    if header:
        lines.append("# " + header)
    lines.append("# decay-profile v1")
    lines.append(f"rate={g17 % fit.rate},amplitude={g17 % fit.amplitude},"
                 f"r_squared={g17 % fit.r_squared}")
    lines.append("i,deviation,log_deviation,fitted_value")
    # fit.predict per value, as numpy's exp of one value and of a whole
    # column may differ in the last bit on some CPUs
    for i, d in fit.profile.tolist():
        lines.append("%.17g,%.17g,%.17g,%.17g" % (i, d, math.log(d), fit.predict(i)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
