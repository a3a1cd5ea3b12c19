"""Classification, interfaces, decay fits, and quiet-row selection."""

import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import twinchain.analysis as analysis_mod
import twinchain.energy as energy_mod
from chaingen import chain_local_grid, lattice_wells, random_chain
from twinchain.analysis import (
    TIE_TOL,
    GoodLineFailure,
    GoodLines,
    InterfaceRecord,
    WellClassification,
    classify,
    deviation_profile,
    find_good_lines,
    fit_exponential,
    interface_positions,
    save_classification,
    save_profile,
)
from twinchain.lattice import (
    BoundaryClamp,
    ChainState,
    LatticeGeometry,
    affine_chain,
    check_admissible,
    piecewise_chain,
    reconstruct,
)
from twinchain.minimize import (MinimizeOptions, laminate_chain, newton_minimize,
                                twin_chain)
from twinchain.wells import build_wells, dist_to_well


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


def pattern_chain(labels, wells, n):
    """Zero-distance piecewise-well chain: cell i = -n..n-1 takes labels[i+n]."""
    geom = LatticeGeometry(n=n)
    lam = geom.lambda_n
    Ws = (wells.U0, wells.QU1)
    VL, VR = Ws[labels[0]], Ws[labels[-1]]

    def cell(i):
        return labels[min(max(i, -n), n - 1) + n]

    ids = geom.atom_ids()
    u = np.zeros((geom.atom_count, 2))
    u[0] = VL @ np.array([ids[0] * lam, 0.0])
    for k, i in enumerate(ids[:-1]):
        u[k + 1] = u[k] + lam * (Ws[cell(i)] @ np.array([1.0, 0.0]))
    rR = u[geom.atom_index(n)] - VR @ np.array([n * lam, 0.0])
    bc = BoundaryClamp.pieces(VL, (0.0, 0.0), VR, rR)
    return ChainState(geometry=geom, wells=wells, bc=bc, u=u,
                      theta=np.zeros(geom.atom_count))


def decode(cls):
    """The (2n+1, 2n+1) well-id grid that cls.runs encodes, ids[i + n, j + n]."""
    ids = [[w for w, count in col for _ in range(count)] for col in cls.runs]
    return np.array(ids, dtype=np.int8)


def mixed_chain(wells, rng, n=8):
    """The midpoint of the wells with angles jittered by 0.01: cells there
    change well down a column, so several columns hold more than one run."""
    mid = affine_chain(n, wells, 0.5 * (wells.U0 + wells.QU1))
    free = np.abs(mid.geometry.atom_ids()) < n
    theta = mid.theta.copy()
    theta[free] += 0.01 * rng.standard_normal(free.sum())
    return mid.with_arrays(theta=theta)


def rows_of(local, level):
    """Per row of a site grid local[k, l]: its fsum and its count of sites >= level."""
    return (np.array([math.fsum(col) for col in local.T.tolist()]),
            np.count_nonzero(local >= level, axis=0))


def grid_row_reduction(chain, level):
    """`energy.row_reduction` read off the tests' own site grid."""
    ids = np.arange(-chain.n, chain.n + 1)
    return rows_of(chain_local_grid(chain, ids, ids), level)


@pytest.fixture(scope="module")
def relaxed_variable_tau40(wells):
    report = newton_minimize(twin_chain(40, wells), MinimizeOptions(variable_tau=True))
    assert report.converged
    return report.final_chain


class TestClassify:
    def test_twin_split(self, wells):
        cls = classify(twin_chain(8, wells), wells)
        assert len(cls.runs) == 17 and cls.column_distance.shape == (17,)
        assert cls.runs == ((((0, 17),),) * 8 + (((1, 17),),) * 9)
        assert (cls.column_distance < 1e-12).all()

    def test_midpoint_gradient_ties(self, wells):
        V = 0.5 * (wells.U0 + wells.QU1)
        chain = affine_chain(6, wells, V)
        grads = reconstruct(chain).gradients
        d0, _ = dist_to_well(grads, wells.U0)
        d1, _ = dist_to_well(grads, wells.U1)
        assert (np.abs(d0 - d1) <= TIE_TOL).all()
        cls = classify(chain, wells)
        assert cls.runs == (((0, 13),),) * 13
        assert (cls.column_distance > 0.5).all()

    def test_distance_is_the_smaller_orbit_distance(self, wells, rng):
        # variable tau takes classify's column blocks, fixed tau its one flat block
        for dtheta in (0.1, 0.0):
            chain = random_chain(rng, n=6, dtheta=dtheta)
            field = reconstruct(chain)
            cls = classify(chain, wells)
            ids = decode(cls)
            for i in range(-chain.n, chain.n + 1):
                k = i + chain.n
                nearer, labelled = [], []
                for j in range(-chain.n, chain.n + 1):
                    g = field.gradients[field.grad_index(i, j)]
                    d0, _ = dist_to_well(g, wells.U0)
                    d1, _ = dist_to_well(g, wells.U1)
                    w = int(ids[k, j + chain.n])
                    assert (d0, d1)[w] <= (d1, d0)[w] + 1e-14
                    nearer.append(min(d0, d1))
                    labelled.append((d0, d1)[w])
                assert cls.column_distance[k] == pytest.approx(max(nearer), abs=1e-14)
                mean_sq = math.fsum(d * d for d in labelled) / len(labelled)
                assert cls.column_mean_sq[k] == pytest.approx(mean_sq, rel=1e-13)

    def test_blocks_match_one_whole_array_pass(self, wells, rng, monkeypatch):
        # a random-theta chain, and one whose columns change well down the column
        for chain in (random_chain(rng, n=8, dtheta=0.1), mixed_chain(wells, rng)):
            monkeypatch.setattr(energy_mod, "_GRID_BLOCK", 1 << 11)
            whole = classify(chain, wells)
            assert [f.name for f in dataclasses.fields(whole)] == [
                "runs", "column_distance", "column_mean_sq", "n", "lam"]
            assert 0 < decode(whole).sum() < 17 * 17
            # 17 centers in blocks of 1, 3 (five full blocks and a ragged one
            # of 2) and 16, and in one block of all 17
            for columns in (1, 3, 16, 17):
                monkeypatch.setattr(energy_mod, "_GRID_BLOCK", columns * 17)
                cls = classify(chain, wells)
                assert cls.runs == whole.runs
                for name in ("column_distance", "column_mean_sq"):
                    assert np.array_equal(getattr(cls, name).view(np.int64),
                                          getattr(whole, name).view(np.int64))
        assert any(len(col) > 1 for col in whole.runs)

    @pytest.mark.parametrize("case", ["relaxed-twin", "random-theta",
                                      "relaxed-variable-tau", "mixed"])
    def test_stencil_matches_reconstructed_lattice(self, wells, rng, case,
                                                   minimizer100, request):
        if case == "relaxed-twin":  # every center flat: one block of one row
            chain = minimizer100
        elif case == "random-theta":  # no flat center: column blocks
            chain = random_chain(rng, n=8, dtheta=0.1)
        elif case == "mixed":  # columns of several runs
            chain = mixed_chain(wells, rng)
        else:
            chain = request.getfixturevalue("relaxed_variable_tau40")
        pick1, dist = lattice_wells(chain, wells)
        cls = classify(chain, wells)
        assert np.array_equal(decode(cls), pick1)
        assert np.abs(cls.column_distance - dist.max(axis=1)).max() <= 1e-12

    def test_peak_memory_stays_near_the_output(self, wells, minimizer400):
        # the output is a few runs and two floats per column
        tracemalloc.start()
        try:
            classify(minimizer400, wells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_random_theta_peak_memory_is_o_of_n(self, wells, rng):
        # every column tilts, so classify walks column blocks; one byte per
        # site would take 1.38 MiB.  classify reads no admissibility, so the
        # angles take dtheta = 0.1 with no check of the reconstructed lattice
        n = 600
        twin = twin_chain(n, wells)
        free = np.abs(twin.geometry.atom_ids()) < n
        theta = twin.theta.copy()
        theta[free] += 0.1 * rng.standard_normal(free.sum())
        chain = twin.with_arrays(theta=theta)
        tracemalloc.start()
        try:
            cls = classify(chain, wells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert all(sum(count for _, count in col) == 2 * n + 1 for col in cls.runs)


class TestColumnBroadcast:
    """An all-flat chain is classified once per column, one run each; readers
    see the same runs as those found cell by cell."""

    def test_flat_twin_keeps_one_id_per_column(self, wells):
        chain = twin_chain(1000, wells)
        tracemalloc.start()
        try:
            cls = classify(chain, wells)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20  # one byte per site alone would take 3.8 MiB
        assert cls.runs == ((((0, 2001),),) * 1000 + (((1, 2001),),) * 1001)

    def test_readers_match_the_dense_copy(self, wells, minimizer400, tmp_path, monkeypatch):
        # the flat block's shared runs against those found down each column
        cls = classify(minimizer400, wells)
        ids = decode(cls)
        dense = dataclasses.replace(cls, runs=tuple(analysis_mod._column_runs(ids, ids.shape[1])))
        assert dense.runs == cls.runs
        for tol in (1e-12, 1e-6, 1e-2):
            assert interface_positions(cls, tol) == interface_positions(dense, tol)
        save_classification(cls, tmp_path / "view.csv", header="twin")
        save_classification(dense, tmp_path / "dense.csv", header="twin")
        assert (tmp_path / "view.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
        # the good lines of the flat path against those of the dense site grid
        settings = ((0.4, 0.1), (0.2, 0.05), (0.9, 0.2))
        picks = [find_good_lines(minimizer400, alpha=a, delta=d) for a, d in settings]
        monkeypatch.setattr(analysis_mod, "row_reduction", grid_row_reduction)
        assert [find_good_lines(minimizer400, alpha=a, delta=d) for a, d in settings] == picks


class TestInterfaces:
    def test_twin_single_interface_at_origin(self, wells):
        cls = classify(twin_chain(8, wells), wells)
        recs = interface_positions(cls, 1e-6)
        assert len(recs) == 1
        assert recs[0].x == 0.0
        assert (recs[0].left_well, recs[0].right_well) == (0, 1)
        assert recs[0].width_in_atoms == 0

    def test_shifted_twin(self, wells):
        cls = classify(twin_chain(8, wells, interface_column=2), wells)
        recs = interface_positions(cls, 1e-6)
        assert len(recs) == 1
        assert recs[0].x == pytest.approx(2 / 8)

    @pytest.mark.parametrize("n, columns", [(10, (-5, 3)), (40, (-10, 10)),
                                            (40, (-33, 21))])
    def test_three_piece_chain_matches_the_cumulative_sum(self, wells, n, columns):
        # [U0 | QU1 | U0]: cell i spans atoms i, i + 1 and takes the piece of i + 1
        c1, c2 = columns
        chain = piecewise_chain(n, wells, list(columns), [wells.U0, wells.QU1, wells.U0])
        ref = pattern_chain([int(c1 <= i < c2) for i in range(-n, n)], wells, n)
        assert np.allclose(chain.u, ref.u, rtol=0.0, atol=1e-14)
        assert np.array_equal(chain.theta, ref.theta)
        assert np.array_equal(chain.bc.V_left, ref.bc.V_left)
        assert np.array_equal(chain.bc.V_right, ref.bc.V_right)
        assert np.array_equal(chain.bc.r_left, ref.bc.r_left)
        assert np.allclose(chain.bc.r_right, ref.bc.r_right, rtol=0.0, atol=1e-14)
        assert check_admissible(reconstruct(chain)) == []
        recs = interface_positions(classify(chain, wells), 1e-8)
        assert [(r.left_well, r.right_well, r.width_in_atoms) for r in recs] == [
            (0, 1, 0), (1, 0, 0)]
        assert [r.x for r in recs] == pytest.approx([c1 / n, c2 / n], abs=1e-15)

    def test_uniform_state_has_none(self, wells):
        cls = classify(affine_chain(8, wells, wells.U0), wells)
        assert interface_positions(cls, 1e-6) == []

    def test_relaxed_laminate_keeps_one_internal_interface(self, wells):
        report = newton_minimize(laminate_chain(40, wells, 0.5))
        cls = classify(report.final_chain, wells)
        recs = interface_positions(cls, 0.05)
        assert len(recs) == 1
        assert abs(recs[0].x) <= 3 / 40

    def test_tol_validated(self, wells):
        cls = classify(twin_chain(6, wells), wells)
        with pytest.raises(ValueError):
            interface_positions(cls, 0.0)

    @pytest.mark.parametrize("case", ["relaxed-twin", "relaxed-variable-tau",
                                      "random-theta"])
    def test_matches_per_cell_column_loop(self, wells, rng, case, minimizer100,
                                          request):
        # oracle: the per-cell route, every lattice cell's well and distance
        # checked column by column
        if case == "relaxed-twin":
            chain = minimizer100
        elif case == "relaxed-variable-tau":
            chain = request.getfixturevalue("relaxed_variable_tau40")
        else:
            chain = random_chain(rng, n=8, dtheta=0.1)
        pick1, dist = lattice_wells(chain, wells)
        n = chain.n
        cls = classify(chain, wells)
        for tol in (0.2, 1e-6):
            runs = []
            for k in range(2 * n + 1):
                i, col_w, col_d = k - n, pick1[k], dist[k]
                if col_d.max() <= tol and (col_w == col_w[0]).all():
                    w = int(col_w[0])
                    if runs and runs[-1][0] == w and runs[-1][2] == i - 1:
                        runs[-1][2] = i
                    else:
                        runs.append([w, i, i])
            expected = [InterfaceRecord(x=chain.lam * 0.5 * (a[2] + 1 + b[1]),
                                        left_well=a[0], right_well=b[0],
                                        width_in_atoms=b[1] - a[2] - 1)
                        for a, b in zip(runs, runs[1:])]
            assert interface_positions(cls, tol) == expected
            if case != "random-theta" and tol == 0.2:
                assert len(expected) == 1

    def test_nan_or_mixed_column_is_not_in_a_well(self, wells):
        cls = classify(twin_chain(8, wells), wells)
        dist = cls.column_distance.copy()
        dist[4] = np.nan  # column i = -4 splits the left run
        runs = list(cls.runs)
        runs[12] = ((1, 3), (0, 1), (1, 13))  # one cell of column i = 4 on the other well
        recs = interface_positions(
            dataclasses.replace(cls, runs=tuple(runs), column_distance=dist), 1e-6)
        assert [(r.left_well, r.right_well, r.width_in_atoms) for r in recs] == [
            (0, 0, 1), (0, 1, 0), (1, 1, 1)]

    def test_count_matches_label_changes_exhaustively(self, wells):
        n = 10
        for seg in itertools.product((0, 1), repeat=5):
            labels = [w for w in seg for _ in range(4)]
            chain = pattern_chain(labels, wells, n)
            assert check_admissible(reconstruct(chain)) == []
            cls = classify(chain, wells)
            recs = interface_positions(cls, 1e-8)
            changes = sum(a != b for a, b in zip(labels, labels[1:]))
            assert len(recs) == changes
            for r in recs:
                assert r.width_in_atoms == 0
                # junction sits on an atom: x is a multiple of lam
                assert (r.x / chain.lam) == pytest.approx(round(r.x / chain.lam))


class TestDeviationProfile:
    def test_self_is_zero(self, wells):
        chain = twin_chain(8, wells)
        prof = deviation_profile(chain, chain)
        assert prof.shape == (chain.geometry.atom_count, 2)
        assert np.array_equal(prof[:, 0], chain.geometry.atom_ids())
        assert (prof[:, 1] == 0).all()

    def test_single_atom_bump(self, wells):
        ref = twin_chain(8, wells)
        u = ref.u.copy()
        u[ref.geometry.atom_index(3)] += (0.01, -0.02)
        prof = deviation_profile(ref.with_arrays(u=u), ref)
        k = ref.geometry.atom_index(3)
        assert prof[k, 1] == pytest.approx(np.hypot(0.01, 0.02), rel=1e-14)
        assert np.count_nonzero(prof[:, 1]) == 1

    def test_geometry_mismatch_rejected(self, wells):
        with pytest.raises(ValueError):
            deviation_profile(twin_chain(8, wells), twin_chain(9, wells))


class TestFitExponential:
    def synthetic(self, rate=-0.8, amp=0.3, lo=0, hi=20):
        i = np.arange(lo, hi + 1, dtype=float)
        return np.stack([i, amp * np.exp(rate * i)], axis=1)

    def test_exact_profile_recovered(self):
        fit = fit_exponential(self.synthetic(), (0, 20))
        assert fit.rate == pytest.approx(-0.8, abs=1e-9)
        assert fit.amplitude == pytest.approx(0.3, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_profile_close(self, rng):
        prof = self.synthetic()
        prof[:, 1] *= 1.0 + 0.01 * rng.standard_normal(len(prof))
        fit = fit_exponential(prof, (0, 20))
        assert fit.rate == pytest.approx(-0.8, rel=0.05)
        assert fit.r_squared > 0.99

    def test_window_selects_rows(self):
        fit = fit_exponential(self.synthetic(), (5, 12))
        assert fit.profile.shape == (8, 2)
        assert fit.profile[0, 0] == 5

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 5"):
            fit_exponential(self.synthetic(), (0, 3))

    def test_nonpositive_deviation(self):
        prof = self.synthetic()
        prof[7, 1] = 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            fit_exponential(prof, (0, 20))


class TestGoodLines:
    def test_quiet_state_returns_centered_triple(self, wells):
        chain = affine_chain(8, wells, wells.U0)
        out = find_good_lines(chain)
        assert isinstance(out, GoodLines)
        assert (out.j_minus, out.j_zero, out.j_plus) == (-7, 0, 7)
        assert out == find_good_lines(chain)  # deterministic

    def test_hot_rows_fail_with_row_sum_reason(self, wells):
        # every row crosses the twin interface, so every row sum is large
        out = find_good_lines(twin_chain(8, wells))
        assert isinstance(out, GoodLineFailure)
        assert "row-sum" in out.reason

    def test_minimizer_passes_without_jump_cap(self, wells, minimizer100):
        out = find_good_lines(minimizer100)
        assert isinstance(out, GoodLines)
        assert out.j_plus - out.j_zero == out.j_zero - out.j_minus
        n, alpha, delta = 100, 0.4, 0.1
        assert -n <= out.j_minus <= -n + 2 * delta * n
        assert -delta * n <= out.j_zero <= delta * n
        ids = np.arange(-n, n + 1)
        local = chain_local_grid(minimizer100, ids, ids)
        for j in (out.j_minus, out.j_zero, out.j_plus):
            assert minimizer100.lam * math.fsum(local[:, j + n]) <= n ** -alpha
            assert (local[:, j + n] >= n ** -alpha).sum() <= n ** alpha / delta

    @pytest.mark.parametrize("case, reason", [
        ("spread", "no row in band 'minus' satisfies the spread-count bound"),
        ("no-triple", "no equally spaced triple across the bands"),
        ("combined", "no row in band 'minus' satisfies the combined conditions"),
    ])
    def test_failure_reasons(self, monkeypatch, case, reason):
        # n = 20 and the default alpha, delta: the bands are j in [-20, -16],
        # [-2, 2] and [16, 20].  A row is quiet when lam * its sum <= 20^-0.4
        # (0.30) and at most 20^0.4 / 0.1 (33.1) of its 41 sites reach 0.30
        n, lam = 20, 0.01
        local = np.zeros((2 * n + 1, 2 * n + 1))  # local[i + n, j + n]
        if case == "spread":  # 41 sites of 0.5: row sum 0.205 but 41 spread
            local[:] = 0.5
        elif case == "no-triple":  # rows -20, 0 and 16 quiet, lam * sum 0.41 elsewhere
            local[:] = 1.0
            local[:, [0, n, 2 * n - 4]] = 0.0
        else:  # minus rows alternate spread-only and row-sum-only failures
            local[:, 0:5:2] = 0.5
            local[n, 1:5:2] = 100.0
        # a stand-in chain: find_good_lines reads its n and lam, and the rows from local
        monkeypatch.setattr(analysis_mod, "row_reduction",
                            lambda chain, level: rows_of(local, level))
        assert find_good_lines(SimpleNamespace(n=n, lam=lam)) == GoodLineFailure(reason)

    def test_parameter_validation(self, wells):
        chain = affine_chain(6, wells, wells.U0)
        with pytest.raises(ValueError):
            find_good_lines(chain, alpha=1.5)
        with pytest.raises(ValueError):
            find_good_lines(chain, delta=0.3)


class TestExports:
    def test_classification_runs(self, wells, tmp_path):
        cls = classify(twin_chain(6, wells), wells)
        path = tmp_path / "cls.csv"
        save_classification(cls, path, header="twin")
        lines = path.read_text().splitlines()
        assert lines[0] == "# twin"
        assert lines[1] == "# well-classification v2"
        assert lines[2] == "n=6,lambda=0.16666666666666666"
        assert lines[3] == "i,runs"
        assert lines[4:] == [f"{i},{int(i >= 0)}:13" for i in range(-6, 7)]

    def test_classification_matches_per_value_formatter(self, tmp_path):
        def save_per_value(well, cls, path, header=None):
            # one run per change of well id, found value by value
            lines = []
            if header:
                lines.append("# " + header)
            lines.append("# well-classification v2")
            lines.append(f"n={cls.n},lambda={'%.17g' % cls.lam}")
            lines.append("i,runs")
            for k in range(2 * cls.n + 1):
                runs = []
                for w in well[k]:
                    if runs and runs[-1][0] == int(w):
                        runs[-1][1] += 1
                    else:
                        runs.append([int(w), 1])
                lines.append(f"{k - cls.n}," + ";".join(f"{w}:{c}" for w, c in runs))
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        well = np.zeros((9, 9), dtype=np.int8)
        well[1] = 1                              # uniform rows of either well
        well[3, 4:] = 1                          # mixed rows
        well[5, ::3] = 1
        well[8] = [1, 0, 1, 0, 0, 1, 1, 0, 1]
        # classify's runs of a block, from its ids
        cls = WellClassification(runs=tuple(analysis_mod._column_runs(well, 9)),
                                 column_distance=np.zeros(9), column_mean_sq=np.zeros(9),
                                 n=4, lam=0.25)
        for header in ("twin", None):
            save_classification(cls, tmp_path / "new.csv", header=header)
            save_per_value(well, cls, tmp_path / "old.csv", header=header)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[-1] == (
            "4,1:1;0:1;1:1;0:2;1:2;0:1;1:1")

    def test_profile_export(self, tmp_path):
        i = np.arange(0, 12, dtype=float)
        prof = np.stack([i, 0.5 * np.exp(-0.3 * i)], axis=1)
        fit = fit_exponential(prof, (0, 11))
        path = tmp_path / "fit.csv"
        save_profile(fit, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# decay-profile v1"
        assert lines[2] == "i,deviation,log_deviation,fitted_value"
        first = lines[3].split(",")
        assert float(first[1]) == pytest.approx(0.5, rel=1e-12)
        assert float(first[3]) == pytest.approx(0.5, rel=1e-9)
