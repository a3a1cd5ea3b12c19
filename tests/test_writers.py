"""The --out writers: the per-column files decoded against the site grids,
the chain and profile files against the join-per-row code they replaced.

`save_breakdown` (energy-breakdown v2) writes per chain column its raw
density sum and its density at the nine rows of `sample_rows`;
`save_classification` (well-classification v2) the runs of equal well id
down the column.  The readers below decode both.  `save_chain` and
`save_profile` format each row once; their oracles are the former writers,
which joined every row from its numpy values.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from chaingen import chain_local_grid, random_chain
from twinchain.analysis import (
    WellClassification,
    classify,
    deviation_profile,
    fit_exponential,
    save_classification,
    save_profile,
)
from twinchain.cli import ExperimentConfig, _relax
from twinchain.energy import (EnergyBreakdown, broadcast_column, chain_energy, sample_rows,
                              save_breakdown)
from twinchain.lattice import affine_chain, check_admissible, reconstruct, save_chain
from twinchain.minimize import newton_minimize, preoptimize_middle, twin_chain
from twinchain.wells import build_wells

G17 = "%.17g"


def old_save_chain(chain, path, header=None):
    bc = chain.bc
    head = {
        "n": chain.n,
        "rescaled": int(chain.geometry.rescaled),
        "a": chain.wells.a,
        "V_left": [float(x) for x in bc.V_left.ravel()],
        "r_left": [float(x) for x in bc.r_left],
        "V_right": [float(x) for x in bc.V_right.ravel()],
        "r_right": [float(x) for x in bc.r_right],
    }
    if header:
        head["config"] = str(header)
    lines = ["# chain-snapshot v1",
             "# " + json.dumps(head, separators=(",", ":")),
             "i,ux,uy,theta"]
    for i, (pos, ang) in zip(chain.geometry.atom_ids(), zip(chain.u, chain.theta)):
        lines.append(f"{i}," + ",".join(G17 % v for v in (pos[0], pos[1], ang)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def old_save_profile(fit, path, header=None):
    lines = []
    if header:
        lines.append("# " + header)
    lines.append("# decay-profile v1")
    lines.append(f"rate={G17 % fit.rate},amplitude={G17 % fit.amplitude},"
                 f"r_squared={G17 % fit.r_squared}")
    lines.append("i,deviation,log_deviation,fitted_value")
    for i, d in fit.profile:
        lines.append(",".join(G17 % v for v in (i, d, math.log(d), fit.predict(i))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


OLD = {save_chain: old_save_chain, save_profile: old_save_profile}


def read_breakdown(path):
    """(n, column_sum, samples) of an energy-breakdown v2 file without a header."""
    lines = path.read_text().splitlines()
    assert lines[0] == "# energy-breakdown v2"
    n = int(lines[1].split(",")[0].removeprefix("n="))
    assert lines[2] == "i,column_sum," + ",".join(f"j={j}" for j in sample_rows(n))
    rows = [line.split(",") for line in lines[3:]]
    assert [int(r[0]) for r in rows] == list(range(-n, n + 1))
    assert all(len(r) == 11 for r in rows)
    table = np.array([[float(v) for v in r[1:]] for r in rows])
    return n, table[:, 0], table[:, 1:]


def read_classification(path):
    """The well-id grid that a well-classification v2 file without a header encodes."""
    lines = path.read_text().splitlines()
    assert lines[0] == "# well-classification v2"
    assert lines[2] == "i,runs"
    n = int(lines[1].split(",")[0].removeprefix("n="))
    grid = []
    for i, line in zip(range(-n, n + 1), lines[3:], strict=True):
        label, runs = line.split(",")
        assert int(label) == i
        grid.append([int(w) for run in runs.split(";")
                     for w, count in [run.split(":")] for _ in range(int(count))])
    return np.array(grid, dtype=np.int8)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_breakdown_reads_back(tmp_path, bd, chain):
    """Every value of the file round-trips to the bits of `bd.columns`, and the
    nine samples are the chain's site grid rows of `sample_rows`."""
    save_breakdown(bd, tmp_path / "bd.csv")
    n, sums, samples = read_breakdown(tmp_path / "bd.csv")
    assert n == bd.n
    assert same_bits(sums, bd.columns[0]) and same_bits(samples, bd.columns[1])
    assert same_bits(samples, chain_local_grid(chain, np.arange(-n, n + 1), sample_rows(n)))


def assert_classification_reads_back(tmp_path, cls):
    save_classification(cls, tmp_path / "cls.csv")
    assert np.array_equal(read_classification(tmp_path / "cls.csv"), cls.well_id)


def assert_same_bytes(tmp_path, writer, obj):
    for header in ("a=1.4142135623730951 n=[12]", None):
        writer(obj, tmp_path / "new.txt", header=header)
        OLD[writer](obj, tmp_path / "old.txt", header=header)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


def _outputs(chain, reference, wells, window):
    """What `minimize` writes of a chain: breakdown, classification, the two
    chains and the decay fit over window."""
    return [(save_breakdown, chain_energy(chain)),
            (save_classification, classify(chain, wells)),
            (save_chain, chain),
            (save_chain, reference),
            (save_profile, fit_exponential(deviation_profile(chain, reference), window))]


def assert_outputs(tmp_path, outputs):
    (_, bd), (_, cls), *rest = outputs
    assert_breakdown_reads_back(tmp_path, bd, chain=rest[0][1])
    assert_classification_reads_back(tmp_path, cls)
    assert {w for w, _ in rest} == set(OLD)
    for writer, obj in rest:
        assert_same_bytes(tmp_path, writer, obj)


def test_fixed_tau_twin_column_view(tmp_path, wells):
    warm = preoptimize_middle(twin_chain(12, wells))
    chain = newton_minimize(warm).final_chain
    outputs = _outputs(chain, warm, wells, (2, 10))
    assert broadcast_column(outputs[0][1].columns[1]) is not None
    assert broadcast_column(outputs[1][1].well_id) is not None
    assert_outputs(tmp_path, outputs)


def test_variable_tau_dense_grid(tmp_path, rng, wells):
    chain = random_chain(rng, n=8, dtheta=0.05, wells=wells)
    outputs = _outputs(chain, twin_chain(8, wells), wells, (-6, 6))
    assert broadcast_column(outputs[0][1].columns[1]) is None
    assert broadcast_column(outputs[1][1].well_id) is None
    assert_outputs(tmp_path, outputs)


@pytest.mark.parametrize("view", ["dense", "column"])
def test_breakdown_signed_zeros(tmp_path, rng, view):
    # -0.0 and +0.0 format differently, so a row mixing them is not uniform;
    # a column view has rows of -0.0 next to rows of +0.0
    col = np.array([1.5, 0.0, -0.0, 0.25, 0.0, -0.0, 2.0 ** -60])
    if view == "column":
        samples = np.broadcast_to(col[:, None], (7, 9))
        assert broadcast_column(samples) is not None
    else:
        samples = rng.uniform(0.0, 2.0, size=(7, 9)) ** 9
        samples[0] = 1.5
        samples[2] = 0.0
        samples[3, ::2] = -0.0
        samples[3, 1::2] = 0.0
        samples[4] = -0.0
        samples[5] = col[:, None].repeat(2, axis=1).ravel()[:9]
    sums = np.array([0.0, -0.0, 1.0, 2.0 ** -1074, 3.5, -0.0, 0.0])
    bd = EnergyBreakdown(total=-0.0, rescaled=0.375, n=3, lam=1.0 / 3.0, a=np.sqrt(2.0),
                         column_table=lambda: (sums, samples))
    save_breakdown(bd, tmp_path / "bd.csv")
    _, got_sums, got = read_breakdown(tmp_path / "bd.csv")
    assert same_bits(got_sums, sums) and same_bits(got, samples)
    text = (tmp_path / "bd.csv").read_text().splitlines()
    assert text[3:5] == ["-3,0," + ",".join(["1.5"] * 9), "-2,-0,"
                         + ",".join("%.17g" % v for v in samples[1])]


def test_classification_one_mixed_row(tmp_path):
    well = np.zeros((9, 9), dtype=np.int8)
    well[1] = 1
    well[6] = 1
    well[4, 5:] = 1
    cls = WellClassification(well_id=well, column_distance=np.zeros(9),
                             column_mean_sq=np.zeros(9), n=4, lam=0.25)
    assert_classification_reads_back(tmp_path, cls)
    save_classification(cls, tmp_path / "cls.csv", header="twin")
    assert (tmp_path / "cls.csv").read_text().splitlines() == [
        "# twin", "# well-classification v2", "n=4,lambda=0.25", "i,runs",
        "-4,0:9", "-3,1:9", "-2,0:9", "-1,0:9", "0,0:5;1:4", "1,0:9", "2,1:9", "3,0:9",
        "4,0:9"]


def test_classification_runs_of_a_random_variable_tau_chain(tmp_path, rng, wells):
    # cells next to the midpoint of the wells change well down a column when
    # the column's angle varies
    mid = affine_chain(8, wells, 0.5 * (wells.U0 + wells.QU1))
    free = np.abs(mid.geometry.atom_ids()) < 8
    theta = mid.theta.copy()
    theta[free] += 0.01 * rng.standard_normal(free.sum())
    chain = mid.with_arrays(theta=theta)
    assert not check_admissible(reconstruct(chain))
    cls = classify(chain, wells)
    assert 0 < sum((row != row[0]).any() for row in cls.well_id) < 17
    assert_classification_reads_back(tmp_path, cls)


@pytest.mark.parametrize("writer, make", [
    (save_breakdown, chain_energy),
    (save_classification, lambda chain: classify(chain, build_wells(np.sqrt(2.0)))),
], ids=["breakdown", "classification"])
def test_grid_writer_memory_stays_below_a_body_per_column(tmp_path, minimizer400, writer, make):
    # the 801 rows are written as they are formatted, from the breakdown's
    # O(n) column table or one id column at a time: no grid-sized copy forms
    grid = make(minimizer400)
    tracemalloc.start()
    try:
        writer(grid, tmp_path / "grid.csv", header="twin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("variable_tau", [False, True], ids=["fixed-tau", "variable-tau"])
def test_file_sizes_grow_as_n(tmp_path, variable_tau):
    # one row of a bounded count of values per column: O(n) bytes, where a
    # site grid took O(n^2)
    sizes = {}
    for n in (200, 400):
        wells, _, report = _relax(ExperimentConfig(variable_tau=variable_tau), n)
        save_breakdown(chain_energy(report.final_chain), tmp_path / f"bd-{n}.csv", header="twin")
        save_classification(classify(report.final_chain, wells), tmp_path / f"cls-{n}.csv",
                            header="twin")
        sizes[n] = [(tmp_path / f"{name}-{n}.csv").stat().st_size for name in ("bd", "cls")]
    for small, large in zip(sizes[200], sizes[400]):
        assert large < 2.1 * small
