"""Layer energies and vertical averaging."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from chaingen import chain_local_grid, random_chain
from twinchain import gamma, minimize
from twinchain.energy import chain_energy, field_local_grid, lattice_energy, window_sum
from twinchain.gamma import (CLAMP_RATIO, LayerSpec, _layer_problem, _solve_layer,
                             average_down, estimate_EK, estimate_layer,
                             save_layer_estimates, thin_strip_energy)
from twinchain.lattice import (BoundaryClamp, ChainState, LatticeGeometry, affine_chain,
                               check_admissible, reconstruct)
from twinchain.minimize import (MinimizeOptions, newton_minimize, preoptimize_middle,
                                twin_chain)
from twinchain.wells import boundary_gradient, build_wells

# frozen reference: rescaled energy of the relaxed n=100 interface state
MINIMIZER_H1_100 = 28.665439


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


@pytest.fixture(scope="module")
def f_half(wells):
    return boundary_gradient(wells, 0.5)


class TestStripAndTranslation:
    def test_full_height_strip_is_the_rescaled_energy(self, wells):
        chain = twin_chain(8, wells)
        bd = chain_energy(chain)
        assert thin_strip_energy(chain, 8) == pytest.approx(bd.rescaled, rel=1e-12)


def _wide_field_grid(chain):
    """The reconstructed field's site grid of chain embedded in a patch of
    half-width N = 2n: grid[i + N, j + N] is the density at center i, row j,
    the atoms past the chain at its clamp.  Halving every position and the
    spacing is exact, so each site keeps the chain's differences over lam."""
    geom = LatticeGeometry(n=2 * chain.n)
    u, theta = chain.atoms_at(geom.atom_ids())
    bc = BoundaryClamp.pieces(chain.bc.V_left, chain.bc.r_left / 2,
                              chain.bc.V_right, chain.bc.r_right / 2)
    wide = ChainState(geometry=geom, wells=chain.wells, bc=bc, u=u / 2, theta=theta)
    return field_local_grid(reconstruct(wide))


class TestWindowSum:
    """window_sum sums each window's rows by the row rule; the field route of
    the chain embedded at twice its width sums it site by site, the clamps
    included where the window passes +-n.  Strips go through thin_strip_energy."""

    @staticmethod
    def _assert_matches_field(chain, windows=(), strips=()):
        grid, N = _wide_field_grid(chain), 2 * chain.n
        cases = [(window, 0.25, window_sum(chain, *window, weight=0.25)) for window in windows]
        cases += [((-chain.n + j0, chain.n + j0, j0 - m, j0 + m), 1.0 / m,
                   thin_strip_energy(chain, m, j0)) for m, j0 in strips]
        for (i_lo, i_hi, j_lo, j_hi), weight, got in cases:
            sites = grid[i_lo + N:i_hi + N + 1, j_lo + N:j_hi + N + 1]
            want = weight * math.fsum(sites.ravel().tolist())
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @pytest.mark.parametrize("dtheta", [0.0, 0.02], ids=["fixed-tau", "variable-tau"])
    def test_translated_window_matches_the_field_route(self, rng, wells, dtheta):
        chain = random_chain(rng, n=8, du=0.03, dtheta=dtheta, wells=wells)
        self._assert_matches_field(chain, windows=[(-2, 8, -3, 5)])

    @pytest.mark.parametrize("dtheta", [0.0, None], ids=["fixed-tau", "variable-tau"])
    def test_strips_into_the_clamps(self, rng, wells, dtheta):
        # j0 near +-n puts columns and rows of the strip past the chain
        n = 100
        chain = random_chain(rng, n=n, dtheta=dtheta, wells=wells)
        self._assert_matches_field(
            chain, strips=[(10, 0), (10, 95), (10, -95), (30, 80), (n - 1, 1)])

    @pytest.mark.parametrize("dtheta", [0.0, 0.1 / 150], ids=["fixed-tau", "variable-tau"])
    def test_windows_past_the_chain(self, rng, wells, dtheta):
        n = 150
        chain = random_chain(rng, n=n, dtheta=dtheta, wells=wells)
        self._assert_matches_field(
            chain, windows=[(-n, n, -n, n), (-n - 3, n - 40, -n + 7, n + 5), (0, 2 * n, -5, 5)],
            strips=[(n, 0), (40, 90), (12, -130)])

    def test_few_rotated_columns(self, rng, wells):
        # windows of flat columns only take one node, the others the rule
        n = 8
        chain = random_chain(rng, n=n, dtheta=0.0, wells=wells)
        theta = chain.theta.copy()
        theta[chain.geometry.atom_index([-5, 0, 3])] = (0.01, -0.02, 0.015)
        chain = chain.with_arrays(theta=theta)
        self._assert_matches_field(
            chain, windows=[(6, 11, -3, 3), (-n, n, -n, n)],
            strips=[(m, j0) for m in (1, 3, n) for j0 in range(-n, n + 1)])


class TestAverageDown:
    def test_quiet_chain_takes_any_strip(self, wells):
        chain = affine_chain(40, wells, wells.U0)
        res = average_down(chain, 5, 0.01)
        assert res.input_energy < 1e-20
        assert res.strip_energy < 1e-20
        assert res.strip_energy <= res.input_energy + res.epsilon

    def test_uniform_rows_meet_the_bound(self, rng, wells):
        # theta = 0 keeps every row identical; strip averages inflate by
        # about H/(2m), so eps = H/2 leaves room and passes the precondition
        base = twin_chain(40, wells)
        ids = np.arange(-39, 40)
        u = base.u.copy()
        u[base.geometry.atom_index(ids)] += (
            0.002 * base.lam * rng.standard_normal((ids.size, 2)))
        chain = base.with_arrays(u=u)
        H = chain_energy(chain).rescaled
        res = average_down(chain, 5, H / 2)
        assert res.strip_energy <= res.input_energy + res.epsilon
        assert abs(res.j0) <= 35

    def test_row_concentration_leaves_a_cheap_strip(self, wells):
        # an angle kick makes site energies grow with |j|: central strips
        # stay near zero while the full vertical average is large
        base = affine_chain(40, wells, wells.U0)
        theta = base.theta.copy()
        theta[base.geometry.atom_index(0)] = 0.02
        chain = base.with_arrays(theta=theta)
        H = chain_energy(chain).rescaled
        res = average_down(chain, 4, H)
        assert res.strip_energy < 0.05 * H
        assert res.j0 == 0

    def test_strip_energy_matches_the_view(self, rng, wells):
        chain = random_chain(rng, n=12, du=0.02, dtheta=0.01, wells=wells)
        H = chain_energy(chain).rescaled
        res = average_down(chain, 3, H)
        ids = np.arange(-12, 13)
        rows = np.arange(-3, 4)
        direct = float(chain_local_grid(chain, ids + res.j0, rows + res.j0).sum()) / 3
        assert direct == pytest.approx(res.strip_energy, rel=1e-12)

    def test_relaxed_interface_state_fails_the_precondition(self, minimizer100):
        # H ~ 28.7 forces n > m (1 + H/eps) ~ 5743, far beyond n = 100
        with pytest.raises(ValueError, match="averaging needs"):
            average_down(minimizer100, 10, 0.05)

    def test_parameter_validation(self, wells):
        chain = twin_chain(8, wells)
        with pytest.raises(ValueError, match="epsilon"):
            average_down(chain, 2, 0.0)
        with pytest.raises(ValueError, match="strip height"):
            average_down(chain, 8, 1.0)
        with pytest.raises(ValueError, match="strip height"):
            average_down(chain, 0, 1.0)

    def test_random_inputs_meeting_the_precondition_all_pass(self, rng, wells):
        # eps chosen just above m H / (n - m) so the precondition holds
        for _ in range(12):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(4 * m, 2 * m * m + m + 1))
            chain = random_chain(rng, n=n, du=0.01, dtheta=0.002, wells=wells)
            H = chain_energy(chain).rescaled
            eps = 1.05 * m * H / (n - m) + 1e-9
            res = average_down(chain, m, eps)
            assert res.strip_energy <= res.input_energy + eps


class TestLayerSpec:
    def test_field_validation(self, wells):
        U = wells.U0
        with pytest.raises(ValueError, match="kind"):
            LayerSpec("B", U, U)
        with pytest.raises(ValueError, match="clamp distance"):
            LayerSpec("C", U, U, L=4, n=8)
        with pytest.raises(ValueError, match="at least 2"):
            LayerSpec("C", U, U, L=4, n=1)
        with pytest.raises(ValueError, match="2x2"):
            LayerSpec("C", np.eye(3), U)

    def test_rejects_empty_height_sequence(self, wells):
        spec = LayerSpec("C", wells.U0, wells.U0, L=8, n=4)
        with pytest.raises(ValueError, match="height sequence is empty"):
            estimate_layer(spec, wells, n_sequence=())


class TestLayerEstimates:
    def test_same_well_internal_layer_is_zero(self, wells):
        for V in (wells.U0, wells.QU1):
            spec = LayerSpec("C", V, V, (0.0, 0.0), L=18, n=6)
            est = estimate_layer(spec, wells)
            assert est.value <= 1e-10
            assert est.converged

    def test_boundary_layers_vanish_at_zero_offset(self, wells, f_half):
        # the centre clamp pins one column to the origin only, so the far
        # well's affine state satisfies it exactly: B(F, well, 0) = 0
        plus = estimate_layer(
            LayerSpec("B_plus", f_half, wells.U0, (0.0, 0.0), L=18, n=6), wells)
        minus = estimate_layer(
            LayerSpec("B_minus", wells.QU1, f_half, (0.0, 0.0), L=18, n=6), wells)
        assert plus.value <= 1e-10
        assert minus.value <= 1e-10

    def test_offset_boundary_layer_decays_elastically(self, wells, f_half):
        # a far-field offset is absorbed by an O(r/n) drift inside one well,
        # so the estimate is positive at finite n but falls off like 1/n
        spec = LayerSpec("B_plus", f_half, wells.U0, (0.3, 0.0), L=96, n=8)
        est = estimate_layer(spec, wells, n_sequence=(4, 6, 8))
        values = [e for _, e in est.n_sequence]
        assert all(v > 0.1 for v in values)
        assert values[0] > values[1] > values[2]
        scaled = [n * v for (n, _), v in zip(est.n_sequence, values)]
        assert max(scaled) / min(scaled) < 1.15
        assert not est.converged

    def test_internal_twin_layer_matches_the_relaxed_state(self, wells):
        spec = LayerSpec("C", wells.U0, wells.QU1, (0.0, 0.0), L=480, n=40)
        est = estimate_layer(spec, wells, n_sequence=(10, 20, 40))
        assert est.value == pytest.approx(28.794652, abs=1e-3)
        assert abs(est.value - MINIMIZER_H1_100) / MINIMIZER_H1_100 < 0.10
        assert est.converged
        values = [e for _, e in est.n_sequence]
        assert values[0] > values[1] > values[2] > 0

    def test_variable_tau_chain_is_layer_c_at_unit_clamp_ratio(self, wells):
        # the chain at size n and layer C at L = n_v = n: the same free atoms
        # and row window, and the layer's window centers +-(L + 1) touch only
        # clamped atoms, so CLAMP_RATIO alone separates the two problems
        n = 40
        warm = preoptimize_middle(twin_chain(n, wells))
        report = newton_minimize(warm, MinimizeOptions(variable_tau=True))
        assert report.converged
        chain = chain_energy(report.final_chain).rescaled
        layer, _ = _solve_layer("C", wells.U0, wells.QU1, (0.0, 0.0), n, n, wells)
        assert layer.converged
        assert chain == pytest.approx(layer.energy_history[-1], rel=1e-13, abs=0.0)

    def test_mirrored_internal_layers_agree(self, wells):
        # the point reflection plus a translation by r maps C(A, B, r) onto
        # C(B, A, r); both are built by the same C branch, so this checks
        # the symmetry, not a shared code path
        for r in ((0.0, 0.0), (0.15, 0.1)):
            a = estimate_layer(LayerSpec("C", wells.U0, wells.QU1, r, L=72, n=6), wells)
            b = estimate_layer(LayerSpec("C", wells.QU1, wells.U0, r, L=72, n=6), wells)
            assert a.value > 1.0
            assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_failed_solves_are_excluded_and_reported(self, wells, monkeypatch):
        spec = LayerSpec("C", wells.U0, wells.QU1, (0.0, 0.0), L=12, n=4)
        monkeypatch.setattr(minimize, "MinimizeOptions",
                            functools.partial(MinimizeOptions, max_iters=1))
        est = estimate_layer(spec, wells, n_sequence=(4,))
        assert math.isnan(est.value) and est.converged is False
        assert est.n_sequence[0][0] == 4 and math.isnan(est.n_sequence[0][1])

    def test_one_solve_per_height_at_the_clamp_ratio(self, wells, f_half,
                                                     monkeypatch):
        calls = []
        solve = gamma._solve_layer

        def counted(kind, V_left, V_right, r, L, n_v, *args):
            calls.append((kind, L, n_v))
            return solve(kind, V_left, V_right, r, L, n_v, *args)

        monkeypatch.setattr(gamma, "_solve_layer", counted)
        _, parts = estimate_EK([f_half, wells.U0, wells.QU1, f_half], wells,
                               n=6, n_sequence=(4, 6))
        # the internal layer carries energy and still takes one solve a height
        assert parts[1][1].value > 1.0
        assert calls == [(kind, CLAMP_RATIO * n_v, n_v)
                         for kind in ("B_plus", "C", "B_minus")
                         for n_v in (4, 6)]

    def test_default_heights_stop_at_the_requested_height(self, wells,
                                                         monkeypatch):
        solved = SimpleNamespace(converged=True, energy_history=[0.0])
        monkeypatch.setattr(gamma, "_solve_layer", lambda *args: (solved, None))
        for n, heights in ((2, [2]), (4, [4]), (5, [4, 5]), (6, [4, 6]),
                           (16, [4, 8, 16])):
            est = estimate_layer(LayerSpec("C", wells.U0, wells.U0, L=n, n=n), wells)
            assert [h for h, _ in est.n_sequence] == heights

    @pytest.mark.parametrize("kind", ["B_plus", "B_minus", "C"])
    @pytest.mark.parametrize("r", [(0.0, 0.0), (0.3, 0.0), (0.15, 0.1)])
    def test_warm_starts_match_cold_solves(self, wells, f_half, monkeypatch,
                                           kind, r):
        # each height starts from the one below it; a cold solve of the same
        # height (no lower state) must reach the same energy
        V_left, V_right = {"B_plus": (f_half, wells.U0),
                           "B_minus": (wells.QU1, f_half),
                           "C": (wells.U0, wells.QU1)}[kind]
        iterations = []

        def counted(*args):
            report, below = _solve_layer(*args)
            iterations.append(report.iterations)
            return report, below

        monkeypatch.setattr(gamma, "_solve_layer", counted)
        est = estimate_layer(LayerSpec(kind, V_left, V_right, r, L=96, n=8),
                             wells, n_sequence=(4, 6, 8))
        for n_v, value in est.n_sequence:
            cold, _ = _solve_layer(kind, V_left, V_right, r, CLAMP_RATIO * n_v,
                                   n_v, wells)
            assert cold.converged
            assert value == pytest.approx(cold.energy_history[-1], rel=1e-12,
                                          abs=1e-15)
        if kind == "C":
            assert all(k < iterations[0] for k in iterations[1:])
        elif r == (0.0, 0.0):
            # atom -1 on the counted side's map is the exact zero-energy state
            assert iterations == [0, 0, 0]
            assert est.value <= 1e-15

    def test_counted_side_start_falls_back_to_the_ramp(self, wells):
        # at lambda = 0.9 moving atom -1 onto U0 flips a triangle of cell -2,
        # which lies outside the counted window; the solve must fall back to
        # the ramp start, whose value is unchanged
        F = boundary_gradient(wells, 0.9)
        chain, problem = _layer_problem("B_plus", F, wells.U0, (0.0, 0.0), 96, 8,
                                        wells)
        x = problem.pack(chain)
        x[:2] = wells.U0 @ (-1.0, 0.0)
        assert {v.i for v in check_admissible(reconstruct(problem.apply(x)))} == {-2}
        assert problem.admissible(problem.pack(chain))
        report, _ = _solve_layer("B_plus", F, wells.U0, (0.0, 0.0), 96, 8, wells)
        assert report.converged
        assert report.energy_history[-1] == pytest.approx(17.556335745726642,
                                                          rel=1e-12)


class TestPointReflection:
    """x -> -x, u -> -u maps a chain onto one of the same energy.  This is
    why B_minus is solved as the reflected B_plus, and why `layers` derives
    its second ordering from the first."""

    @pytest.mark.parametrize("base", ["twin", "affine0", "affine1"])
    def test_reflected_chain_has_the_same_energy(self, rng, wells, base):
        chain = random_chain(rng, n=8, base=base, dtheta=0.05, wells=wells)
        # unequal clamp offsets: ramp a translation t from the left clamp
        # to the right one
        t = np.array([0.07, -0.04])
        ramp = np.clip((chain.geometry.atom_ids() + chain.n) / (2 * chain.n),
                       0.0, 1.0)[:, None]
        bc = chain.bc
        chain = ChainState(geometry=chain.geometry, wells=wells,
                           bc=BoundaryClamp.pieces(bc.V_left, bc.r_left,
                                                   bc.V_right, bc.r_right + t),
                           u=chain.u + ramp * t, theta=chain.theta)
        assert not check_admissible(reconstruct(chain))
        bc = chain.bc
        mirror = ChainState(geometry=chain.geometry, wells=wells,
                            bc=BoundaryClamp.pieces(bc.V_right, -bc.r_right,
                                                    bc.V_left, -bc.r_left),
                            u=-chain.u[::-1], theta=chain.theta[::-1])
        assert chain_energy(mirror).total == pytest.approx(
            chain_energy(chain).total, rel=1e-14)
        assert lattice_energy(reconstruct(mirror)).total == pytest.approx(
            lattice_energy(reconstruct(chain)).total, rel=1e-14)


class TestEstimateEK:
    def test_trivial_fraction_has_zero_surface_energy(self, wells):
        total, _ = estimate_EK([wells.U0, wells.U0, wells.U0], wells,
                               n=6, n_sequence=(4, 6))
        assert total <= 1e-10

    def test_two_layer_structure_without_internal_layer(self, wells):
        total, parts = estimate_EK([wells.U0, wells.U0, wells.U0], wells,
                                   n=6, n_sequence=(4, 6))
        assert [spec.kind for spec, _ in parts] == ["B_plus", "B_minus"]

    def test_half_fraction_orderings_agree(self, wells, f_half):
        first, parts = estimate_EK([f_half, wells.U0, wells.QU1, f_half], wells,
                                   n=8, n_sequence=(4, 8))
        second, _ = estimate_EK([f_half, wells.QU1, wells.U0, f_half], wells,
                                n=8, n_sequence=(4, 8))
        assert first == pytest.approx(30.226905, abs=1e-3)
        assert second == pytest.approx(first, rel=1e-6)
        kinds = [spec.kind for spec, _ in parts]
        assert kinds == ["B_plus", "C", "B_minus"]
        # the boundary layers are free: all surface energy is the interface
        values = [p.value for _, p in parts]
        assert values[0] <= 1e-10
        assert values[2] <= 1e-10
        assert values[1] == pytest.approx(first, rel=1e-9)

    def test_zero_offset_boundary_layers_vanish_at_a_2(self):
        # the ramp start trapped both B layers near 1.0e3 here; atom -1 on
        # the counted side's map starts them at their zero-energy state
        wells = build_wells(2.0)
        F = boundary_gradient(wells, 0.5)
        _, parts = estimate_EK([F, wells.U0, wells.QU1, F], wells, n=6,
                               n_sequence=(4, 6))
        for _, est in (parts[0], parts[2]):
            assert all(abs(e) <= 1e-10 for _, e in est.n_sequence)

    def test_sequence_validation(self, wells, f_half):
        with pytest.raises(ValueError, match="at least"):
            estimate_EK([wells.U0, wells.U0], wells)
        with pytest.raises(ValueError, match="start and end"):
            estimate_EK([wells.U0, wells.QU1, wells.QU1], wells)
        with pytest.raises(ValueError, match="wells"):
            estimate_EK([f_half, f_half, f_half], wells)


class TestExport:
    def test_layer_table_layout(self, wells, f_half, tmp_path):
        spec = LayerSpec("C", wells.U0, wells.U0, (0.0, 0.0), L=8, n=4)
        est = estimate_layer(spec, wells, n_sequence=(4,))
        shifted = LayerSpec("B_plus", f_half, wells.U0, (0.25, 0.1), L=8, n=4)
        est_shifted = estimate_layer(shifted, wells, n_sequence=(4,))
        path = tmp_path / "layers.csv"
        save_layer_estimates([(spec, est), (shifted, est_shifted)], path,
                             header="sweep")
        lines = path.read_text().splitlines()
        assert lines[0] == "# sweep"
        assert lines[1] == "# layer-estimates v2"
        assert lines[2].startswith("kind,")
        assert len(lines) == 5
        row = lines[3].split(",")
        assert row[0] == "C"
        assert row[3] == "0 0"
        assert int(row[4]) == 4
        assert float(row[5]) <= 1e-10
        # the offset column is the spec's offset, printed %.17g
        row = lines[4].split(",")
        assert row[0] == "B_plus"
        assert row[3] == "0.25 0.10000000000000001"
        assert int(row[4]) == 4

    def test_sweep_script_header_prints_the_stretch_as_a_float(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = tmp_path / "sweep.csv"
        subprocess.run([sys.executable, str(root / "scripts" / "run_layer_sweep.py"),
                        "--height", "4", "--offsets", "0", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        assert out.read_text().splitlines()[0] == "# layer sweep a=1.4142135623730951 height=4"
