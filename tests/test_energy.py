"""Density oracle, well zero-sets, dual-route totals, and diagnostics."""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import twinchain.energy as energy_mod
from chaingen import center_stencils, chain_local_grid, random_chain
from twinchain.analysis import classify, find_good_lines
from twinchain.energy import (
    EnergyBreakdown,
    chain_energy,
    density,
    field_local_grid,
    lattice_energy,
    rule_total,
    save_breakdown,
    window_sum,
)
from twinchain.lattice import reconstruct
from twinchain.minimize import MinimizeOptions, newton_minimize, preoptimize_middle, twin_chain
from twinchain.wells import build_wells, dist_to_well


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


def reference_density(v_list, h_list, wells):
    """Slow term-by-term rewrite of the density used to pin the fast path."""
    a2, b2 = wells.a ** 2, wells.b ** 2

    def bracket(alpha, beta):
        tot = 0.0
        for v in v_list:
            tot += (v[0] ** 2 + v[1] ** 2 - alpha) ** 2
        for h in h_list:
            tot += (h[0] ** 2 + h[1] ** 2 - beta) ** 2
        for v in v_list:
            for h in h_list:
                tot += (v[0] * h[0] + v[1] * h[1]) ** 2
        return tot

    return bracket(a2, b2) * bracket(b2, a2)


def matrix_site(F):
    """The four signed neighbor differences of a homogeneous deformation F."""
    F = np.asarray(F, dtype=float)
    v = np.stack([F[:, 1], -F[:, 1]])
    h = np.stack([F[:, 0], -F[:, 0]])
    return v, h


class TestDensity:
    def test_matches_reference_on_random_input(self, wells, rng):
        for _ in range(25):
            v = rng.normal(size=(2, 2))
            h = rng.normal(size=(2, 2))
            got = density(v, h, wells)
            want = reference_density(v, h, wells)
            assert got == pytest.approx(want, rel=1e-13)

    def test_identity_value_frozen(self, wells):
        v, h = matrix_site(np.eye(2))
        assert density(v, h, wells) == pytest.approx(6.25, rel=1e-14)

    def test_vanishes_on_both_wells(self, wells):
        for U in (wells.U0, wells.U1):
            for phi in (0.0, 0.3, -1.1, 2.9):
                c, s = np.cos(phi), np.sin(phi)
                R = np.array([[c, -s], [s, c]])
                v, h = matrix_site(R @ U)
                assert density(v, h, wells) < 1e-20

    def test_positive_away_from_wells(self, wells):
        mats = [np.eye(2), np.diag([1.3, 0.6]),
                np.array([[1.0, 0.5], [0.0, 1.0]]),
                np.array([[0.0, -1.7], [0.9, 0.0]])]
        for F in mats:
            d = min(dist_to_well(F, wells.U0)[0], dist_to_well(F, wells.U1)[0])
            assert d > 0.1
            v, h = matrix_site(F)
            assert density(v, h, wells) > 1e-3

    def test_batched_matches_scalar(self, wells, rng):
        v = rng.normal(size=(3, 4, 2, 2))
        h = rng.normal(size=(3, 4, 2, 2))
        grid = density(v, h, wells)
        assert grid.shape == (3, 4)
        assert grid[1, 2] == pytest.approx(density(v[1, 2], h[1, 2], wells), rel=1e-14)


@settings(max_examples=60, derandomize=True)
@given(st.floats(-np.pi, np.pi),
       st.lists(st.floats(-2, 2), min_size=8, max_size=8))
def test_density_is_frame_indifferent(phi, flat):
    wells = build_wells(np.sqrt(2.0))
    vecs = np.array(flat).reshape(2, 2, 2)
    v, h = vecs[0], vecs[1]
    c, s = np.cos(phi), np.sin(phi)
    R = np.array([[c, -s], [s, c]])
    before = density(v, h, wells)
    after = density(v @ R.T, h @ R.T, wells)
    assert after == pytest.approx(before, rel=1e-10, abs=1e-10)


class TestDualRoute:
    def test_totals_agree_on_random_chains(self, wells, rng):
        for k in range(5):
            chain = random_chain(rng, n=6, dtheta=0.1 if k % 2 else 0.0)
            a = chain_energy(chain)
            b = lattice_energy(reconstruct(chain))
            assert abs(a.total - b.total) <= 1e-12 * (1.0 + abs(a.total))

    def test_local_grids_agree_elementwise(self, rng):
        chain = random_chain(rng, n=6, dtheta=0.1)
        ids = np.arange(-6, 7)
        g1 = chain_local_grid(chain, ids, ids)
        g2 = field_local_grid(reconstruct(chain))
        assert g1.shape == g2.shape == (13, 13)
        assert np.abs(g1 - g2).max() < 1e-10


class TestTwinEnergy:
    def test_kink_density_frozen(self, wells):
        # the interface column sees one well on each side
        v = np.stack([wells.QU1 @ (0, 1), -(wells.U0 @ (0, 1))])
        h = np.stack([wells.QU1 @ (1, 0), -(wells.U0 @ (1, 0))])
        assert density(v, h, wells) == pytest.approx(36.3609, rel=1e-12)

    def test_energy_lives_on_interface_column(self, wells):
        chain = twin_chain(8, wells)
        n = chain.n
        ids = np.arange(-n, n + 1)
        local = chain_local_grid(chain, ids, ids)
        for col_sums in (local.sum(axis=1), chain_energy(chain).columns[0]):
            assert np.abs(col_sums[:n]).max() < 1e-20
            assert np.abs(col_sums[n + 1:]).max() < 1e-20
        for j in (-8, -3, 0, 5, 8):
            assert local[n, j + n] == pytest.approx(36.3609, rel=1e-12)

    def test_rescaled_total_frozen(self, wells):
        bd = chain_energy(twin_chain(8, wells))
        # 17 identical interface sites, each 36.3609, at lam = 1/8
        assert bd.rescaled == pytest.approx(77.2669125, rel=1e-12)
        assert bd.total == pytest.approx(bd.rescaled / 8.0, rel=1e-14)


class TestBreakdown:
    def test_reductions_consistent(self, rng):
        chain = random_chain(rng, n=6)
        bd = chain_energy(chain)
        m = 2 * bd.n + 1
        ids = np.arange(-bd.n, bd.n + 1)
        row_sums, _ = energy_mod.row_reduction(chain, 1.0)
        assert row_sums.shape == (m,)
        assert bd.columns[0].shape == (m,) and bd.columns[1].shape == (m, 9)
        raw = math.fsum(chain_local_grid(chain, ids, ids).ravel())
        assert math.fsum(row_sums) == pytest.approx(raw, rel=1e-13)
        assert math.fsum(bd.columns[0]) == pytest.approx(raw, rel=1e-13)
        assert bd.total == pytest.approx(bd.lam ** 2 * raw, rel=1e-13)
        assert bd.rescaled == pytest.approx(bd.total / bd.lam, rel=1e-14)

    def test_window_sum_partitions_total(self, wells, rng):
        chain = random_chain(rng, n=6)
        n = chain.n
        full = window_sum(chain, -n, n, -n, n, weight=chain.lam ** 2)
        assert full == pytest.approx(chain_energy(chain).total, rel=1e-13)
        left = window_sum(chain, -n, -1, -n, n)
        right = window_sum(chain, 0, n, -n, n)
        whole = window_sum(chain, -n, n, -n, n)
        assert left + right == pytest.approx(whole, rel=1e-12)


class TestOneSum:
    """Every chain-variable total is the row rule's sum (`rule_total`), so a
    Newton solve's last energy is the total `chain_energy` reports."""

    @pytest.mark.parametrize("variable_tau", [False, True], ids=["fixed-tau", "variable-tau"])
    @pytest.mark.parametrize("n", [8, 40, 100])
    def test_chain_energy_is_the_last_newton_energy(self, wells, n, variable_tau):
        report = newton_minimize(preoptimize_middle(twin_chain(n, wells)),
                                 MinimizeOptions(variable_tau=variable_tau))
        assert report.converged
        assert chain_energy(report.final_chain).total.hex() == report.energy_history[-1].hex()


def _site_wise_sums(local, lam):
    """The reference reduction: two fsum passes over every site."""
    row_sums = np.array([math.fsum(col.tolist()) for col in local.T])
    return row_sums, lam * lam * math.fsum(local.ravel().tolist())


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _count(monkeypatch, name):
    """The calls of energy_mod.name from here on, one list entry each."""
    calls = []
    real = getattr(energy_mod, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(energy_mod, name, counted)
    return calls


def _three_rotated_columns(rng):
    """A fixed-tau chain whose columns -5, 0 and 3 turn, tilting 9 of its 17 centers."""
    chain = random_chain(rng, n=8, dtheta=0.0)
    theta = chain.theta.copy()
    theta[chain.geometry.atom_index([-5, 0, 3])] = (0.01, -0.02, 0.015)
    return chain.with_arrays(theta=theta)


def _signed_zero_chain(wells, tilt=0.0):
    """The n = 8 twin with -0.0 for every zero coordinate and angle; tilt
    turns column 3, so its three centers leave the flat path."""
    chain = twin_chain(8, wells)
    theta = np.full_like(chain.theta, -0.0)
    if tilt:
        theta[chain.geometry.atom_index(3)] = tilt
    return chain.with_arrays(u=np.where(chain.u == 0.0, -0.0, chain.u), theta=theta)


def _constant_rows(rng, m):
    # both signs and 36 decades, so the rows' products round and cancel
    x = rng.standard_normal(m) * 10.0 ** rng.uniform(-30.0, 6.0, m)
    return np.repeat(x[:, None], m, axis=1)


def _mixed_rows(rng, m):
    local = _constant_rows(rng, m)
    local[[1, 4, m - 1]] = rng.standard_normal((3, m))
    return local


def _signed_zero_rows(rng, m):
    local = _constant_rows(rng, m)
    local[0] = -0.0
    local[2] = 0.0
    local[3, ::2] = -0.0
    local[3, 1::2] = 0.0
    return local


class TestBreakdownSums:
    """`row_reduction` sums each row of a flat stencil from one density per
    column and walks any other stencil row by row; every row sum must keep
    its bits.  A synthetic grid local[k, l] goes in through a stencil whose
    v+ carries (k, j) and a density that looks that site up."""

    @pytest.mark.parametrize("make", [
        _constant_rows, _mixed_rows, _signed_zero_rows,
        lambda rng, m: np.full((m, m), -0.0),
        lambda rng, m: np.full((m, m), 1.0 / 3.0),
    ], ids=["constant", "mixed", "signed-zeros", "all-negative-zero", "one-third"])
    def test_matches_site_wise_fsum_bit_for_bit(self, rng, monkeypatch, make):
        n = 6
        for _ in range(20):
            self._assert_bitwise(monkeypatch, make(rng, 2 * n + 1), flat=False)

    @pytest.mark.parametrize("zeros", [False, True], ids=["mixed-decades", "signed-zeros"])
    def test_column_broadcast_matches_site_wise_fsum_bit_for_bit(self, rng, monkeypatch, zeros):
        n = 6
        m = 2 * n + 1
        for _ in range(20):
            col = _constant_rows(rng, m)[:, 0]
            if zeros:
                col[[0, 3]], col[5] = -0.0, 0.0
            self._assert_bitwise(monkeypatch, np.broadcast_to(col[:, None], (m, m)), flat=True)

    def test_relaxed_twin(self, minimizer100):
        n = minimizer100.n
        ids = np.arange(-n, n + 1)
        local = chain_local_grid(minimizer100, ids, ids)
        level = n ** -0.4
        sums, counts = energy_mod.row_reduction(minimizer100, level)
        assert _same_bits(sums, _site_wise_sums(local, minimizer100.lam)[0])
        assert counts.tolist() == np.count_nonzero(local >= level, axis=0).tolist()

    @staticmethod
    def _assert_bitwise(monkeypatch, local, flat):
        m = len(local)
        n = m // 2
        base, slope = np.zeros((m, 4, 2)), np.zeros((m, 4, 2))
        base[:, 0, 0] = np.arange(m)  # v+ = (k, j) at center k - n on row j
        slope[:, 0, 1] = 0.0 if flat else 1.0
        monkeypatch.setattr(energy_mod, "_center_stencils", lambda chain, lo, hi: (base, slope))
        monkeypatch.setattr(energy_mod, "density", lambda v, h, wells: local[
            v[..., 0, 0].astype(int), v[..., 0, 1].astype(int) + n])
        level = float(np.median(local))
        sums, counts = energy_mod.row_reduction(SimpleNamespace(n=n, wells=None), level)
        assert _same_bits(sums, _site_wise_sums(local, 1.0)[0])
        assert counts.tolist() == np.count_nonzero(local >= level, axis=0).tolist()


class TestUniformColumns:
    """uniform_columns: per chain column, whether every site holds its first bits."""

    def test_broadcast_is_all_uniform(self, minimizer100, wells):
        for grid in (chain_energy(minimizer100).columns[1], classify(minimizer100, wells).well_id):
            assert energy_mod.broadcast_column(grid) is not None
            assert energy_mod.uniform_columns(grid).tolist() == [True] * grid.shape[0]

    @pytest.mark.parametrize("dtype", [float, np.int8])
    def test_dense_grid_marks_its_one_uniform_column(self, rng, monkeypatch, dtype):
        grid = rng.integers(1, 100, size=(9, 9)).astype(dtype)
        grid[:, 0] = 0  # every column differs from its first site
        grid[4] = 7
        # 2 columns per block: the comparison runs in several ragged blocks
        monkeypatch.setattr(energy_mod, "_GRID_BLOCK", 2 * 9)
        assert np.flatnonzero(energy_mod.uniform_columns(grid)).tolist() == [4]

    def test_signed_zeros_are_not_uniform(self):
        grid = np.zeros((3, 4))
        grid[1, 2] = -0.0
        grid[2] = -0.0
        assert energy_mod.uniform_columns(grid).tolist() == [True, False, True]


class TestFlatColumns:
    """row_reduction evaluates each center once when every slope is zero and
    walks the rows in blocks otherwise, also when only some centers tilt; the
    row sums and counts must not move."""

    @staticmethod
    def _flat_count(chain):
        _, slope, _ = center_stencils(chain, np.arange(-chain.n, chain.n + 1))
        return int((~slope.any(axis=(1, 2))).sum())

    def _assert_matches_row_grid(self, chain, monkeypatch):
        n = chain.n
        ids = np.arange(-n, n + 1)
        ref = chain_local_grid(chain, ids, ids)
        level = float(np.median(ref))
        # 4 rows per block: the walk runs in several ragged blocks
        monkeypatch.setattr(energy_mod, "_GRID_BLOCK", 4 * ids.size)
        evaluations = _count(monkeypatch, "density")
        sums, counts = energy_mod.row_reduction(chain, level)
        all_flat = self._flat_count(chain) == ids.size
        assert len(evaluations) == (1 if all_flat else -(-ids.size // 4))
        assert _same_bits(sums, [math.fsum(ref[:, l]) for l in range(ids.size)])
        assert counts.tolist() == np.count_nonzero(ref >= level, axis=0).tolist()

    def test_fixed_tau_twin_is_all_flat(self, rng, monkeypatch):
        chain = random_chain(rng, n=8, dtheta=0.0)
        assert self._flat_count(chain) == 17
        self._assert_matches_row_grid(chain, monkeypatch)

    def test_three_rotated_columns_mix_both_paths(self, rng, monkeypatch):
        chain = _three_rotated_columns(rng)
        # each rotated column tilts the stencils of its three centers
        assert self._flat_count(chain) == 17 - 9
        self._assert_matches_row_grid(chain, monkeypatch)

    def test_relaxed_variable_tau_chain_has_no_flat_center(self, wells, monkeypatch):
        report = newton_minimize(twin_chain(8, wells), MinimizeOptions(variable_tau=True))
        assert report.converged
        assert self._flat_count(report.final_chain) == 0
        self._assert_matches_row_grid(report.final_chain, monkeypatch)


class TestRowReduction:
    """`row_reduction` against the tests' own grid: per row the fsum of its
    densities and the count of them >= level, bit for bit, with no grid."""

    @pytest.mark.parametrize("kind", ["fixed-tau", "variable-tau", "three-rotated",
                                      "signed-zeros", "signed-zeros-tilted"])
    def test_matches_chain_local_grid_bit_for_bit(self, rng, wells, kind):
        chain = {"fixed-tau": lambda: random_chain(rng, n=8, dtheta=0.0),
                 "variable-tau": lambda: random_chain(rng, n=8, dtheta=0.1),
                 "three-rotated": lambda: _three_rotated_columns(rng),
                 "signed-zeros": lambda: _signed_zero_chain(wells),
                 "signed-zeros-tilted": lambda: _signed_zero_chain(wells, tilt=0.01)}[kind]()
        ids = np.arange(-chain.n, chain.n + 1)
        local = chain_local_grid(chain, ids, ids)
        row_sums, _ = _site_wise_sums(local, chain.lam)
        for level in (0.0, chain.n ** -0.4, float(np.median(local)), np.inf):
            sums, counts = energy_mod.row_reduction(chain, level)
            assert _same_bits(sums, row_sums)
            assert counts.tolist() == np.count_nonzero(local >= level, axis=0).tolist()

    def test_find_good_lines_forms_no_grid(self, rng):
        n = 300
        chain = random_chain(rng, n=n)  # random angles: the stencil tilts
        assert center_stencils(chain, np.arange(-n, n + 1))[1].any()
        tracemalloc.start()
        try:
            find_good_lines(chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 * n + 1) ** 2 * 8 / 4  # a quarter of one float64 site grid


class TestColumnBroadcast:
    """An all-flat chain keeps one density per column, with the same values and bits."""

    def test_flat_twin_keeps_one_density_per_column(self, wells):
        chain = twin_chain(1000, wells)
        tracemalloc.start()
        try:
            chain_energy(chain).columns
            sums, _ = energy_mod.row_reduction(chain, 1000 ** -0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20  # a dense grid alone would take 30.6 MiB
        assert (sums == sums[0]).all()

    def test_relaxed_twin_matches_site_grid(self, minimizer400):
        bd = chain_energy(minimizer400)
        ids = np.arange(-bd.n, bd.n + 1)
        local = np.concatenate([chain_local_grid(minimizer400, ids, ids[lo:lo + 128])
                                for lo in range(0, ids.size, 128)],  # bounded temporaries
                               axis=1)
        assert energy_mod.uniform_columns(local).all()
        level = bd.n ** -0.4
        sums, counts = energy_mod.row_reduction(minimizer400, level)
        row_sums, total = _site_wise_sums(local, bd.lam)
        assert _same_bits(sums, row_sums)
        assert counts.tolist() == np.count_nonzero(local >= level, axis=0).tolist()
        # the flat row rule promises its one node's sum: lam^2 * 801 times the
        # fsum of one density per column
        assert bd.total.hex() == rule_total(local[:, :1], [801.0], bd.lam ** 2).hex()
        # against lam * lam * fsum(every site): the rule rounds the column's
        # fsum, lam ** 2, its product with 801 and that with the column sum;
        # the site-wise sum rounds its fsum, lam * lam and their product.  Seven
        # roundings of at most 2^-53 relative each bound the gap by
        # 7 * 2^-53 * total to first order
        assert abs(bd.total - total) <= 7.5 * 2.0 ** -53 * total

    def test_variable_tau_chain_stays_dense_and_writeable(self, rng):
        chain = random_chain(rng, n=8, dtheta=0.1)
        samples = chain_energy(chain).columns[1]
        assert energy_mod.broadcast_column(samples) is None and samples.flags.writeable
        sums, _ = energy_mod.row_reduction(chain, 1.0)
        assert len(set(sums.tolist())) > 1

    def test_readers_match_the_dense_copy(self, minimizer100, tmp_path):
        bd = chain_energy(minimizer100)
        sums, samples = bd.columns
        assert energy_mod.broadcast_column(samples) is not None
        dense = dataclasses.replace(bd, column_table=lambda: (sums, np.array(samples)))
        assert energy_mod.broadcast_column(dense.columns[1]) is None
        save_breakdown(bd, tmp_path / "view.csv", header="twin")
        save_breakdown(dense, tmp_path / "dense.csv", header="twin")
        assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


class TestLazyGrid:
    """chain_energy builds one stencil and takes only its total; the column
    table waits for its first read, and `stencil_map` walks a site grid for
    `classify` alone."""

    def test_total_builds_one_stencil_and_no_grid(self, rng, monkeypatch):
        stencils = _count(monkeypatch, "slot_stencil")
        walks = _count(monkeypatch, "stencil_map")
        chain_energy(random_chain(rng, n=8, dtheta=0.1))
        assert (len(stencils), len(walks)) == (1, 0)

    @pytest.mark.parametrize("dtheta", [0.1, 0.0], ids=["variable-tau", "fixed-tau"])
    def test_grid_matches_the_walk(self, rng, dtheta):
        # an int8 grid of the sites that reach a level: its column counts are
        # row_reduction's
        chain = random_chain(rng, n=8, dtheta=dtheta)
        ids = np.arange(-chain.n, chain.n + 1)
        local = chain_local_grid(chain, ids, ids)
        level = float(np.median(local))
        walk = energy_mod.stencil_map(
            energy_mod._center_stencils(chain, -chain.n, chain.n),
            lambda k, W: density(W[..., :2, :], W[..., 2:, :], chain.wells) >= level)
        assert walk.dtype == np.int8
        assert np.array_equal(walk, local >= level)
        assert walk.sum(axis=0).tolist() == energy_mod.row_reduction(chain, level)[1].tolist()
        # a flat (fixed-tau) chain keeps its row-stride-0 broadcast
        assert (walk.strides[1] == 0) == (dtheta == 0.0)

    def test_scan_walks_no_grid(self, monkeypatch, tmp_path):
        from twinchain import cli
        walks = _count(monkeypatch, "stencil_map")
        assert cli.main(["scan", "--variable-tau", "--n", "40", "--out", str(tmp_path)]) == 0
        assert walks == []

    def test_columns_wait_for_their_first_read_and_walk_no_grid(self, rng, monkeypatch):
        stencils = _count(monkeypatch, "slot_stencil")
        walks = _count(monkeypatch, "stencil_map")
        bd = chain_energy(random_chain(rng, n=8, dtheta=0.1))
        assert "columns" not in vars(bd)
        first = bd.columns
        assert bd.columns is first and vars(bd)["columns"] is first
        assert (len(stencils), len(walks)) == (1, 0)

    def test_minimize_walks_only_the_classification(self, monkeypatch, tmp_path):
        # the breakdown comes from the stencil's columns; classify walks its grid
        from twinchain import analysis, cli
        walks = _count(monkeypatch, "stencil_map")
        monkeypatch.setattr(analysis, "stencil_map", energy_mod.stencil_map)
        assert cli.main(["minimize", "--variable-tau", "--n", "8", "--out", str(tmp_path)]) == 0
        assert len(walks) == 1

    def test_diagnose_walks_only_the_classification(self, monkeypatch, tmp_path):
        # the good lines come from row_reduction; classify walks its grid once per n
        from twinchain import analysis, cli
        walks = _count(monkeypatch, "stencil_map")
        # classify calls its module's own binding: count it with the same list
        monkeypatch.setattr(analysis, "stencil_map", energy_mod.stencil_map)
        energies = []
        monkeypatch.setattr(cli, "chain_energy", energies.append)
        assert cli.main(["diagnose", "--variable-tau", "--n", "8", "--n", "12",
                         "--out", str(tmp_path)]) == 0
        assert (len(walks), energies) == (2, [])


class TestColumnTable:
    """The breakdown's column table: per column its raw sum and its density at
    the nine rows of `sample_rows`, from the stencil in O(n)."""

    @pytest.fixture(scope="class", params=[(n, vt) for vt in (False, True) for n in (40, 100)],
                    ids=lambda p: f"n{p[0]}-{'variable' if p[1] else 'fixed'}-tau")
    def relaxed(self, request):
        from twinchain import cli
        n, variable_tau = request.param
        _, _, report = cli._relax(cli.ExperimentConfig(variable_tau=variable_tau), n)
        assert report.converged
        return report.final_chain

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 40, 101, 1000])
    def test_sample_rows(self, n):
        rows = energy_mod.sample_rows(n)
        assert len(set(rows)) == 9 and rows == sorted(rows)
        assert {-n, 0, n} <= set(rows)

    def test_samples_are_the_grid_rows_bit_for_bit(self, relaxed):
        bd = chain_energy(relaxed)
        ids = np.arange(-bd.n, bd.n + 1)
        samples = bd.columns[1]
        assert samples.shape == (2 * bd.n + 1, 9)
        assert _same_bits(samples, chain_local_grid(relaxed, ids, energy_mod.sample_rows(bd.n)))
        # a flat stencil evaluates its density once per column
        assert (samples.strides[1] == 0) == (not relaxed.theta.any())

    def test_column_sums_match_the_grid_and_the_total(self, relaxed):
        bd = chain_energy(relaxed)
        ids = np.arange(-bd.n, bd.n + 1)
        sums = bd.columns[0]
        site_sums = np.array([math.fsum(col.tolist())
                              for col in chain_local_grid(relaxed, ids, ids)])
        assert np.abs(sums - site_sums).max() <= 1e-12 * np.abs(site_sums).max()
        assert (np.abs(sums - site_sums) <= 1e-12 * site_sums).all()
        assert abs(bd.lam ** 2 * math.fsum(sums.tolist()) - bd.total) <= 4 * math.ulp(bd.total)

    def test_matches_the_reconstructed_lattice(self, relaxed):
        bd, oracle = chain_energy(relaxed), lattice_energy(reconstruct(relaxed))
        for got, want in zip(bd.columns, oracle.columns):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_degree_8_interpolation_rebuilds_every_row(self, relaxed):
        bd = chain_energy(relaxed)
        x = np.array(energy_mod.sample_rows(bd.n)) / bd.n
        coef = np.linalg.solve(np.vander(x, 9), bd.columns[1].T)
        ids = np.arange(-bd.n, bd.n + 1)
        rebuilt = (np.vander(ids / bd.n, 9) @ coef).T
        local = chain_local_grid(relaxed, ids, ids)
        assert (np.abs(rebuilt - local).max(axis=1) <= 1e-10 * local.max(axis=1)).all()


class TestExport:
    def test_save_breakdown_layout(self, wells, tmp_path, rng):
        chain = random_chain(rng, n=6)
        bd = chain_energy(chain)
        path = tmp_path / "bd.csv"
        save_breakdown(bd, path, header="twin run")
        lines = path.read_text().splitlines()
        assert lines[0] == "# twin run"
        assert lines[1] == "# energy-breakdown v2"
        assert lines[2].startswith("n=6,")
        assert lines[3] == "i,column_sum,j=-6,j=-4,j=-3,j=-2,j=0,j=2,j=3,j=4,j=6"
        assert len(lines) == 4 + 13  # headers, then one row per column
        first = lines[4].split(",")
        assert first[0] == "-6" and len(first) == 11
        # %.17g round-trips exactly
        assert float(first[1]) == bd.columns[0][0]
        assert float(first[2]) == chain_local_grid(chain, [-6], [-6])[0, 0]

    def test_save_breakdown_matches_per_value_formatter(self, tmp_path, rng):
        def save_per_value(bd, path, header=None):
            # one "%.17g" per value, joined at the end
            g17 = "%.17g"
            sums, samples = bd.columns
            lines = []
            if header:
                lines.append("# " + header)
            lines.append("# energy-breakdown v2")
            lines.append(f"n={bd.n},a={g17 % bd.a},lambda={g17 % bd.lam},"
                         f"total={g17 % bd.total},rescaled={g17 % bd.rescaled}")
            lines.append("i,column_sum," + ",".join(
                f"j={j}" for j in energy_mod.sample_rows(bd.n)))
            for k in range(len(sums)):
                lines.append(f"{k - bd.n}," + ",".join(
                    g17 % v for v in [sums[k], *samples[k]]))
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        n = 3
        samples = rng.uniform(0.0, 2.0, size=(7, 9)) ** 9
        samples[0] = 1.5                    # uniform row
        samples[2] = 0.0                    # all +0.0
        samples[3, ::2] = -0.0              # +0.0 mixed with -0.0
        samples[3, 1::2] = 0.0
        samples[4] = -0.0                   # all -0.0
        samples[5, 4] = np.nan              # NaN in a mixed row
        samples[6] = np.nan                 # uniform NaN row
        sums = samples.sum(axis=1)
        bd = EnergyBreakdown(total=0.125, rescaled=0.375, n=n,
                             lam=1.0 / 3.0, a=np.sqrt(2.0), column_table=lambda: (sums, samples))
        for header in ("twin run", None):
            save_breakdown(bd, tmp_path / "new.csv", header=header)
            save_per_value(bd, tmp_path / "old.csv", header=header)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        text = (tmp_path / "new.csv").read_text().splitlines()
        # without a header, row k = i + n is line 3 + k
        assert text[6] == "0,0," + ",".join(["-0", "0"] * 4 + ["-0"])
        assert text[7] == "1,0," + ",".join(["-0"] * 9)
        assert text[9] == "3,nan," + ",".join(["nan"] * 9)
