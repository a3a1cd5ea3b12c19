"""The --out writers against the join-per-row code they replaced, byte for byte.

`save_breakdown`, `save_classification`, `save_chain` and `save_profile`
format each row once; the oracles below are the former writers, which
joined every row from its numpy values.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from chaingen import random_chain
from twinchain.analysis import (
    WellClassification,
    classify,
    deviation_profile,
    fit_exponential,
    save_classification,
    save_profile,
)
from twinchain.energy import EnergyBreakdown, broadcast_column, chain_energy, save_breakdown
from twinchain.lattice import save_chain
from twinchain.minimize import newton_minimize, preoptimize_middle, twin_chain
from twinchain.wells import build_wells

G17 = "%.17g"


def old_save_breakdown(bd, path, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header + "\n")
        fh.write("# energy-breakdown v1\n")
        fh.write(f"n={bd.n},a={G17 % bd.a},lambda={G17 % bd.lam},"
                 f"total={G17 % bd.total},rescaled={G17 % bd.rescaled}\n")
        width = bd.local.shape[1]
        flat = broadcast_column(bd.local) is not None
        fh.write("i\\j," + ",".join(str(j - bd.n) for j in range(width)) + "\n")
        for k, row in enumerate(bd.local):
            bits = row.view(np.int64)
            if flat or (bits == bits[0]).all():
                body = ",".join([G17 % row[0]] * width)
            else:
                body = ",".join(map(G17.__mod__, row.tolist()))
            fh.write(f"{k - bd.n},{body}\n")


def old_save_classification(cls, path, header=None):
    width = 2 * cls.n + 1
    flat = broadcast_column(cls.well_id) is not None
    with open(path, "w") as fh:
        if header:
            fh.write("# " + header + "\n")
        fh.write("# well-classification v1\n")
        fh.write(f"n={cls.n},lambda={'%.17g' % cls.lam}\n")
        fh.write("i\\j," + ",".join(str(l - cls.n) for l in range(width)) + "\n")
        for k in range(width):
            row = cls.well_id[k]
            if flat or (row == row[0]).all():
                body = ",".join([str(row[0])] * width)
            else:
                body = ",".join(map(str, row.tolist()))
            fh.write(f"{k - cls.n},{body}\n")


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


OLD = {save_breakdown: old_save_breakdown, save_classification: old_save_classification,
       save_chain: old_save_chain, save_profile: old_save_profile}


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


def test_fixed_tau_twin_column_view(tmp_path, wells):
    warm = preoptimize_middle(twin_chain(12, wells))
    chain = newton_minimize(warm).final_chain
    outputs = _outputs(chain, warm, wells, (2, 10))
    assert broadcast_column(outputs[0][1].local) is not None
    assert broadcast_column(outputs[1][1].well_id) is not None
    assert {w for w, _ in outputs} == set(OLD)
    for writer, obj in outputs:
        assert_same_bytes(tmp_path, writer, obj)


def test_variable_tau_dense_grid(tmp_path, rng, wells):
    chain = random_chain(rng, n=8, dtheta=0.05, wells=wells)
    outputs = _outputs(chain, twin_chain(8, wells), wells, (-6, 6))
    assert broadcast_column(outputs[0][1].local) is None
    assert broadcast_column(outputs[1][1].well_id) is None
    for writer, obj in outputs:
        assert_same_bytes(tmp_path, writer, obj)


@pytest.mark.parametrize("view", ["dense", "column"])
def test_breakdown_signed_zeros(tmp_path, rng, view):
    # -0.0 and +0.0 format differently, so a row mixing them is not constant;
    # a column view has rows of -0.0 next to rows of +0.0
    col = np.array([1.5, 0.0, -0.0, 0.25, 0.0, -0.0, 2.0 ** -60])
    if view == "column":
        local = np.broadcast_to(col[:, None], (7, 7))
        assert broadcast_column(local) is not None
    else:
        local = rng.uniform(0.0, 2.0, size=(7, 7)) ** 9
        local[0] = 1.5
        local[2] = 0.0
        local[3, ::2] = -0.0
        local[3, 1::2] = 0.0
        local[4] = -0.0
        local[5] = col
    bd = EnergyBreakdown(site_grid=lambda: local, total=-0.0, rescaled=0.375, n=3, lam=1.0 / 3.0,
                         a=np.sqrt(2.0))
    assert_same_bytes(tmp_path, save_breakdown, bd)


def test_classification_one_mixed_row(tmp_path):
    well = np.zeros((9, 9), dtype=np.int8)
    well[1] = 1
    well[6] = 1
    well[4, 5:] = 1
    cls = WellClassification(well_id=well, column_distance=np.zeros(9),
                             column_mean_sq=np.zeros(9), n=4, lam=0.25)
    assert_same_bytes(tmp_path, save_classification, cls)


@pytest.mark.parametrize("writer, make", [
    (save_breakdown, chain_energy),
    (save_classification, lambda chain: classify(chain, build_wells(np.sqrt(2.0)))),
], ids=["breakdown", "classification"])
def test_grid_writer_memory_stays_below_a_body_per_column(tmp_path, minimizer400, writer, make):
    # the 801 rows are written as they are formatted; keeping one formatted
    # body per column would hold over 1 MiB (ids) and about 13 MiB (densities)
    grid = make(minimizer400)
    tracemalloc.start()
    try:
        writer(grid, tmp_path / "grid.csv", header="twin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
