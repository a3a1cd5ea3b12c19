"""Derivative oracles and Newton pipeline checks.

Gradients and Hessians are compared against central finite differences of the
scalar energy; the twin relaxation values are frozen from converged runs.
"""

import copy
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import twinchain.energy as energy_mod
import twinchain.minimize as minimize_mod
from chaingen import (blocks_to_dense, center_stencils, chain_local_grid, dense_to_band,
                      random_chain)
from twinchain.energy import brackets, chain_energy, density, row_rule
from twinchain.gamma import _layer_problem, _solve_layer
from twinchain.lattice import ChainState, affine_chain, check_admissible, reconstruct
from twinchain.minimize import (
    ChainProblem,
    MinimizeOptions,
    _EY,
    _OMEGA,
    _PI,
    _block_cholesky_solve,
    _bracket_parts,
    _levenberg_step,
    _reduced_gradient,
    _reduced_hessian,
    laminate_chain,
    newton_minimize,
    preoptimize_middle,
    twin_chain,
)
from twinchain.wells import boundary_gradient, build_wells


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


def fd_gradient(problem, x, step=1e-6):
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        g[k] = (problem.energy(x + e) - problem.energy(x - e)) / (2 * step)
    return g


def fd_hessian(problem, x, step=1e-6):
    h = np.empty((x.size, x.size))
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = step
        h[k] = (problem.gradient(x + e) - problem.gradient(x - e)) / (2 * step)
    return h


class TestDerivatives:
    @pytest.mark.parametrize("variable_tau", [False, True])
    def test_gradient_matches_fd(self, rng, variable_tau):
        chain = random_chain(rng, n=8, dtheta=0.05 if variable_tau else 0.0)
        problem = ChainProblem(chain, variable_tau=variable_tau)
        x = problem.pack(chain)
        g = problem.gradient(x)
        g_fd = fd_gradient(problem, x)
        assert np.abs(g - g_fd).max() <= 1e-5 * (1.0 + np.abs(g).max())

    @pytest.mark.parametrize("variable_tau, free_ids", [(False, None), (True, None),
                                                        (False, [0])],
                             ids=["False", "True", "middle_atom"])
    def test_hessian_matches_fd(self, rng, variable_tau, free_ids):
        # middle_atom: the 2-dof problem of `preoptimize_middle`, in blocks of one dof
        chain = random_chain(rng, n=8, dtheta=0.05 if variable_tau else 0.0)
        problem = ChainProblem(chain, variable_tau=variable_tau, free_ids=free_ids)
        x = problem.pack(chain)
        h = blocks_to_dense(*problem.hessian_banded(x), x.size)
        h_fd = fd_hessian(problem, x)
        assert np.abs(h - h_fd).max() <= 1e-4 * (1.0 + np.abs(h).max())

    def test_banded_matches_dense(self, rng):
        for variable_tau in (False, True):
            chain = random_chain(rng, n=6, dtheta=0.05)
            problem = ChainProblem(chain, variable_tau=variable_tau)
            x = problem.pack(chain)
            D, U = problem.hessian_banded(x)
            s = 3 * problem.nd - 1
            m = -(-x.size // s)
            assert D.shape == (m, s, s) and U.shape == (m - 1, s, s)
            assert np.array_equal(D, D.swapaxes(1, 2))
            # the pad dofs of the last block: identity diagonal, no coupling
            pad = m * s - x.size
            assert pad > 0
            assert np.array_equal(D[-1, -pad:, -pad:], np.eye(pad))
            assert not D[-1, :-pad, -pad:].any() and not U[-1, :, -pad:].any()
            # the blocks and the full matrix solve one shifted system
            h = blocks_to_dense(D, U, x.size)
            shift = 1.0 + np.abs(h).max()
            rhs = np.linspace(-1.0, 1.0, x.size)
            assert np.allclose(_levenberg_step(D + shift * np.eye(s), U, -rhs).step,
                               np.linalg.solve(h + shift * np.eye(x.size), rhs),
                               rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("kind, free_ids", [
        ("B_plus", [-1, 1, 2, 3, 4, 5]),
        ("B_minus", [-1, 1, 2, 3, 4, 5]),
        ("C", list(range(-5, 6))),
    ], ids=["B_plus", "B_minus", "C"])
    def test_layer_problem_matches_fd(self, rng, wells, kind, free_ids):
        # windowed layer problems at L=6: rows -n_v..n_v, scale 1/n_v,
        # variable tau.  The B kinds skip atom 0, next to the first free id;
        # B_minus is built as the point-reflected B_plus, with the clamps
        # swapped and the offset negated.  C frees the whole interior
        F = boundary_gradient(wells, 0.5)
        chain, problem = _layer_problem(kind, F, wells.U0, (0.1, -0.05),
                                        6, 3, wells)
        assert list(problem.free_ids) == free_ids
        if kind == "B_minus":
            assert np.array_equal(chain.bc.V_left, wells.U0)
            assert np.array_equal(chain.bc.V_right, F)
            assert np.array_equal(chain.bc.r_right, [-0.1, 0.05])
        amplitude = np.tile([0.05, 0.05, 0.02], problem.free_ids.size)
        for _ in range(20):
            x = problem.pack(chain) + amplitude * rng.standard_normal(problem.ndof)
            if problem.admissible(x):
                break
            amplitude = 0.5 * amplitude
        else:
            pytest.fail("no admissible perturbation")
        g = problem.gradient(x)
        assert np.abs(g - fd_gradient(problem, x)).max() <= 1e-5 * (1.0 + np.abs(g).max())
        h = blocks_to_dense(*problem.hessian_banded(x), x.size)
        assert np.abs(h - fd_hessian(problem, x)).max() <= 1e-4 * (1.0 + np.abs(h).max())

    def test_energy_matches_breakdown(self, rng):
        chain = random_chain(rng, n=7, dtheta=0.05)
        problem = ChainProblem(chain, variable_tau=True)
        assert problem.energy(problem.pack(chain)) == pytest.approx(
            chain_energy(chain).total, rel=1e-14)

    def test_pack_apply_round_trip(self, rng):
        chain = random_chain(rng, n=6, dtheta=0.05)
        problem = ChainProblem(chain, variable_tau=True)
        back = problem.apply(problem.pack(chain))
        assert np.array_equal(back.u, chain.u)
        assert np.array_equal(back.theta, chain.theta)

    def test_module_level_wrappers(self, wells):
        chain = affine_chain(6, wells, wells.U0)
        problem = ChainProblem(chain)
        g = problem.gradient(problem.pack(chain))
        assert np.abs(g).max() < 1e-11  # exact minimizer, rounding only


def _fd4(fn, steps):
    """Fourth-order central differences of fn(dz) at dz = 0, one component of
    dz per entry of `steps`, on a new last axis."""
    cols = []
    for k, step in enumerate(steps):
        e = np.zeros(len(steps))
        e[k] = step
        cols.append((8.0 * (fn(e) - fn(-e)) - (fn(2 * e) - fn(-2 * e))) / (12.0 * step))
    return np.stack(cols, axis=-1)


# the row of every point in TestDensityKernel: a node off 0, so that the
# j-proportional theta columns count.  A theta step moves W by up to
# (1 + j) |tau| = 4 times itself, so theta takes a quarter of y's step
_KERNEL_ROW = 1.5
_KERNEL_STEPS = [1e-4] * 4 + [2.5e-5] * 3


def _moved(W, theta, wells, dz):
    """W (points, 4, 2) and t at row _KERNEL_ROW after a step dz in the
    reduced variables (y_p, y_m, theta_m, theta_c, theta_p): W is affine in y
    and in each t_s, with dW_a/dt_s = Pi[s, a] + j Omega[s, a]."""
    t0, t = wells.tau_at(theta), wells.tau_at(theta + dz[4:])
    W = W + _EY @ dz[:4].reshape(2, 2) + (_PI.T + _KERNEL_ROW * _OMEGA.T) @ (t - t0)
    return W, t


def _density_parts(W, t, wells, variable_tau=True):
    """D, dD/dz and d2D/dz2 per point, each point a center with one node of
    weight 1, by the kernels that `ChainProblem` runs."""
    W = W[:, None]
    q, r, X, B1, B2 = brackets(W[..., :2, :], W[..., 2:, :], wells)
    fk, d = _bracket_parts(q, r, X, B1, B2, wells)
    nodes, weights = np.array([_KERNEL_ROW]), np.ones(1)
    t = t if variable_tau else None
    gz, G = _reduced_gradient(W, d, t, nodes, weights)
    return (B1 * B2)[:, 0], gz, _reduced_hessian(W, fk, d, B1 + B2, G, t, nodes, weights)


class TestDensityKernel:
    @pytest.mark.parametrize("case", ["random", "U0", "U1", "turned_U0", "QU1"])
    def test_point_derivatives_match_fd(self, rng, wells, case):
        # D, dD/dz and d2D/dz2 of the solver's kernel point by point, on random
        # stencils and on stencils 1e-6 off a well, where an affine state with
        # cell gradient [h+ | v+] = U has v- = -v+ and h- = -h+; the slot
        # angles are random
        if case == "random":
            W = 0.7 * rng.standard_normal((50, 4, 2))
        else:
            c, s = np.cos(0.3), np.sin(0.3)
            U = {"U0": wells.U0, "U1": wells.U1, "QU1": wells.QU1,
                 "turned_U0": np.array([[c, -s], [s, c]]) @ wells.U0}[case]
            W = (np.stack([U[:, 1], -U[:, 1], U[:, 0], -U[:, 0]])
                 + 1e-6 * rng.standard_normal((20, 4, 2)))
        theta = 0.3 * rng.standard_normal((len(W), 3))
        t = wells.tau_at(theta)
        D, dD, d2D = _density_parts(W, t, wells)
        assert np.array_equal(D, density(W[..., :2, :], W[..., 2:, :], wells))
        if case != "random":
            assert D.max() < 1e-9
        fd_dD = _fd4(lambda dz: _density_parts(*_moved(W, theta, wells, dz), wells)[0],
                     _KERNEL_STEPS)
        fd_d2D = _fd4(lambda dz: _density_parts(*_moved(W, theta, wells, dz), wells)[1],
                      _KERNEL_STEPS)
        # per point, relative to its largest entry; the differences sit near
        # 1e-9 of it, against 1e-4 for the assembled Hessian in
        # test_hessian_matches_fd
        assert (np.abs(dD - fd_dD).max(axis=-1) <= 1e-8 * np.abs(dD).max(axis=-1)).all()
        assert (np.abs(d2D - fd_d2D).max(axis=(-2, -1))
                <= 1e-8 * np.abs(d2D).max(axis=(-2, -1))).all()
        assert np.array_equal(d2D, np.swapaxes(d2D, -1, -2))
        # fixed tau takes the y variables only, the same block to rounding,
        # per point relative to its largest entry
        _, dD_y, d2D_y = _density_parts(W, t, wells, variable_tau=False)
        assert np.allclose(dD_y, dD[:, :4], rtol=1e-14, atol=0.0)
        assert (np.abs(d2D_y - d2D[:, :4, :4]).max(axis=(-2, -1))
                <= 1e-14 * np.abs(d2D[:, :4, :4]).max(axis=(-2, -1))).all()
        assert np.array_equal(d2D_y, np.swapaxes(d2D_y, -1, -2))


def _evaluation_case(case, rng, wells):
    """A factory of fresh problems of one shape, and a point off its start chain."""
    if case == "fixed_tau_twin":
        chain = twin_chain(40, wells)

        def make():
            return ChainProblem(chain)
    elif case == "variable_tau":
        chain = random_chain(rng, n=10, dtheta=0.05, wells=wells)

        def make():
            return ChainProblem(chain, variable_tau=True)
    else:
        F = boundary_gradient(wells, 0.5)

        def make():
            return _layer_problem("C", F, wells.U0, (0.1, -0.05), 24, 4, wells)[1]
        chain = make().template
    x = make().pack(chain)
    return make, x + 1e-3 * rng.standard_normal(x.size)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


EVALUATION_CASES = ["fixed_tau_twin", "variable_tau", "layer"]


class TestEvaluationPlumbing:
    @pytest.mark.parametrize("case", EVALUATION_CASES)
    def test_one_point_matches_fresh_problems(self, rng, wells, case):
        # energy, gradient and Hessian at one x share its record; each equals,
        # bit for bit, the same call on a problem that never saw x
        make, x = _evaluation_case(case, rng, wells)
        problem = make()
        e, g, (D, U) = problem.energy(x), problem.gradient(x), problem.hessian_banded(x)
        assert _same_bits(e, make().energy(x))
        assert _same_bits(g, make().gradient(x))
        fresh = make().hessian_banded(x)
        assert all(map(_same_bits, (D, U), fresh))
        # a finished record answers again, also after a caller changed its results
        g[:] = 0.0
        D[:] = 0.0
        U[:] = 0.0
        assert _same_bits(problem.energy(x), e)
        assert _same_bits(problem.gradient(x), make().gradient(x))
        assert all(map(_same_bits, problem.hessian_banded(x), fresh))

    @pytest.mark.parametrize("case", EVALUATION_CASES)
    def test_x_changed_in_place_is_evaluated_anew(self, rng, wells, case):
        make, x = _evaluation_case(case, rng, wells)
        problem = make()
        problem.gradient(x)
        x[0] += 1e-3
        assert _same_bits(problem.gradient(x), make().gradient(x))
        x[0] -= 2e-3
        assert _same_bits(problem.energy(x), make().energy(x))
        assert all(map(_same_bits, problem.hessian_banded(x), make().hessian_banded(x)))

    def test_layer_solve_evaluates_each_point_once(self, monkeypatch, wells):
        # Newton asks for the gradient and the Hessian only at points whose
        # energy it has evaluated (the start and each accepted trial), so
        # only energy calls reach the brackets
        bracket_calls, evaluations = [], []
        original = energy_mod.brackets

        def counted(*args):
            bracket_calls.append(1)
            return original(*args)
        for module in (energy_mod, minimize_mod):
            monkeypatch.setattr(module, "brackets", counted)
        for name in ("energy", "gradient", "hessian_banded"):
            method = getattr(ChainProblem, name)

            def traced(self, x, method=method, name=name):
                before = len(bracket_calls)
                out = method(self, x)
                evaluations.append((name, len(bracket_calls) - before))
                return out
            monkeypatch.setattr(ChainProblem, name, traced)
        F = boundary_gradient(wells, 0.5)
        report, _ = _solve_layer("C", F, wells.U0, (0.1, -0.05), 24, 4, wells)
        assert report.converged
        names = [name for name, _ in evaluations]
        assert names.count("hessian_banded") > 3
        assert all(calls == 0 for name, calls in evaluations if name != "energy")
        assert len(bracket_calls) == names.count("energy")

    def test_newton_builds_one_stencil_per_point(self, monkeypatch, wells):
        # a trial's admissibility check and its energy share one stencil, and
        # the problem's flat check builds the record of the start x
        chain = preoptimize_middle(twin_chain(100, wells))
        built, read = [], []
        stencil = ChainProblem._stencil

        def counted(self, x):
            built.append(1)
            return stencil(self, x)
        monkeypatch.setattr(ChainProblem, "_stencil", counted)
        for name in ("admissible", "energy"):
            method = getattr(ChainProblem, name)

            def traced(self, x, method=method):
                read.append(np.array(x).tobytes())
                return method(self, x)
            monkeypatch.setattr(ChainProblem, name, traced)
        report = newton_minimize(chain)
        assert report.converged
        assert len(read) > 2 * report.iterations
        assert len(built) == len(set(read))

    def test_admissibility_centers_outside_the_window(self, wells):
        # B_plus counts the centers 0..L + 1, and its free atom -1 adds the
        # admissibility centers -2 and -1 left of them.  The record's stencil
        # spans both; on three starts like those of `_solve_layer` (a shifted
        # one, atom -1 on the right map, the ramp), its slice for those
        # centers equals a stencil built for them alone, and so do the
        # verdicts, which the lattice confirms
        F = boundary_gradient(wells, 0.5)
        L, n_v = 6, 3
        chain, problem = _layer_problem("B_plus", F, wells.U0, (0.0, 0.0), L, n_v, wells)
        assert problem.i_lo == 0 and problem._adm == slice(0, L + 3)
        alone = ChainProblem(chain, variable_tau=True, free_ids=problem.free_ids,
                             i_window=(-2, L), j_window=(-n_v, n_v), scale=1.0 / n_v)
        ramp = problem.pack(chain)
        shifted = ramp.copy()
        shifted[:3] += (-0.28, -0.047, 0.046)  # flips cell -3 (see TestAdmissibility)
        mapped = ramp.copy()
        mapped[:2] = chain.bc.V_right @ (-1.0, 0.0)
        verdicts = []
        for x in (shifted, mapped, ramp):
            ok = problem.admissible(x)
            record = [a[problem._adm] for a in problem._point(x).stencil]
            fresh = center_stencils(problem.apply(x), np.arange(-2, L + 1))
            assert all(map(_same_bits, record, fresh))
            assert ok == alone.admissible(x)
            assert ok == (check_admissible(reconstruct(problem.apply(x))) == [])
            verdicts.append(ok)
        assert verdicts == [False, True, True]

    def test_gradient_and_hessian_share_memory(self, wells):
        # the largest problem of `twinchain layers` (C, L = 192, heights +-16):
        # a gradient and then the Hessian at its x peak within 1.1x of the
        # 6.0 MiB that one Hessian took when every evaluation was rebuilt
        F = boundary_gradient(wells, 0.5)
        chain, problem = _layer_problem("C", F, wells.U0, (0.1, -0.05), 192, 16, wells)
        x = problem.pack(chain)
        tracemalloc.start()
        try:
            problem.gradient(x)
            problem.hessian_banded(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 6.0 * 2 ** 20

    def test_layer_solve_builds_no_chain_per_evaluation(self, monkeypatch, wells):
        # evaluations write x into the frozen stencil atoms; the only ChainStates
        # are the layer's chain and the solve's final chain
        built, evaluations = [], []
        post_init = ChainState.__post_init__
        monkeypatch.setattr(ChainState, "__post_init__",
                            lambda chain: built.append(1) or post_init(chain))
        for name in ("energy", "gradient", "hessian_banded", "admissible"):
            method = getattr(ChainProblem, name)
            monkeypatch.setattr(ChainProblem, name, lambda self, x, method=method:
                                evaluations.append(1) or method(self, x))
        F = boundary_gradient(wells, 0.5)
        report, _ = _solve_layer("C", F, wells.U0, (0.1, -0.05), 24, 4, wells)
        assert report.converged
        assert len(evaluations) > 10
        assert len(built) <= 2

    def test_apply_still_validates_the_clamps(self, wells):
        chain = twin_chain(6, wells)
        with pytest.raises(ValueError, match="free atoms must be interior"):
            ChainProblem(chain, free_ids=[0, 6])
        with pytest.raises(ValueError, match="free atoms must not repeat"):
            ChainProblem(chain, free_ids=[0, 0, 1])
        # past the constructor's check, apply's ChainState rejects a moved clamp
        problem = ChainProblem(chain)
        problem.free_ids = np.append(problem.free_ids, 6)
        x = problem.pack(chain)
        x[-2] += 1e-3
        with pytest.raises(ValueError, match="clamped atom 6 off its boundary value"):
            problem.apply(x)


class TestTouchedCenters:
    """The middle-atom warm start evaluates a window of three centers, those
    whose stencil touches atom 0, and lands where the full-width problem does."""

    @staticmethod
    def _stage_centers(monkeypatch):
        """The leading (center) axis length of each call of the two derivative
        kernels and, apart, of the energy stage's `brackets`."""
        seen, energy_seen = [], []
        for name, log in (("_reduced_gradient", seen), ("_reduced_hessian", seen),
                          ("brackets", energy_seen)):
            kernel = getattr(minimize_mod, name)
            monkeypatch.setattr(minimize_mod, name, lambda *args, kernel=kernel, log=log, **kw:
                                log.append(len(args[0])) or kernel(*args, **kw))
        return seen, energy_seen

    @pytest.mark.parametrize("n", [100, 400])
    def test_middle_atom_problem_uses_three_centers(self, monkeypatch, wells, n):
        seen, energy_seen = self._stage_centers(monkeypatch)
        chain = twin_chain(n, wells)
        assert preoptimize_middle(chain) is not chain  # converged: a failure returns chain
        assert seen and set(seen) == {3}
        assert energy_seen and set(energy_seen) == {3}

    @pytest.mark.parametrize("a", [np.sqrt(2.0), 2.0, 1.00001], ids=["sqrt2", "2", "1.00001"])
    @pytest.mark.parametrize("n", [8, 100, 400])
    @pytest.mark.parametrize("column", [0, 0.4], ids=["middle", "off_middle"])
    def test_matches_the_full_width_problem(self, a, n, column):
        # the other centers add a constant to E: the warm chain keeps its bits
        chain = twin_chain(n, build_wells(a), interface_column=round(column * n))
        full = newton_minimize(chain, problem=ChainProblem(chain, free_ids=[0]))
        assert full.converged
        warm = preoptimize_middle(chain)
        assert _same_bits(warm.u, full.final_chain.u)
        assert _same_bits(warm.theta, full.final_chain.theta)

    def test_unconverged_warm_start_warns_and_returns_its_input(self, monkeypatch, wells):
        monkeypatch.setattr(minimize_mod, "MinimizeOptions",
                            functools.partial(MinimizeOptions, max_iters=0))
        chain = twin_chain(40, wells)
        with pytest.warns(UserWarning, match=r"did not converge \(max iterations\)"):
            assert preoptimize_middle(chain) is chain

    def test_scatter_index_is_built_once_per_problem(self, rng, wells):
        # one index serves every evaluation of a problem
        F = boundary_gradient(wells, 0.5)
        chain, problem = _layer_problem("B_plus", F, wells.U0, (0.3, 0.0), 24, 4, wells)
        x = problem.pack(chain)
        problem.hessian_banded(x)
        index = problem._index
        for _ in range(2):
            x = x + 1e-4 * rng.standard_normal(x.size)
            problem.gradient(x)
            problem.hessian_banded(x)
            assert problem._index is index


def _per_row(problem):
    """The same problem summed row by row: every row a node of weight 1."""
    ref = copy.copy(problem)
    ref.nodes = np.arange(problem.j_lo, problem.j_hi + 1, dtype=float)
    ref.weights = np.ones(ref.nodes.size)
    return ref


class TestRowRule:
    @pytest.mark.parametrize("shape", ["variable_tau", "turned_fixed_tau",
                                       "B_plus", "B_minus", "C"])
    def test_rule_matches_the_row_sums(self, rng, wells, shape):
        # every row sum the solver takes is a polynomial of degree <= 8 in j,
        # so five Gauss nodes reproduce the per-row sums up to rounding
        if shape in ("variable_tau", "turned_fixed_tau"):
            chain = random_chain(rng, n=10, dtheta=0.05, wells=wells)
            problem = ChainProblem(chain, variable_tau=shape == "variable_tau")
            amplitude = np.tile([0.05 * chain.lam] * 2 + [0.02] * problem.variable_tau,
                                problem.free_ids.size)
        else:
            F = boundary_gradient(wells, 0.5)
            chain, problem = _layer_problem(shape, F, wells.U0, (0.1, -0.05), 12, 6, wells)
            amplitude = np.tile([0.05, 0.05, 0.02], problem.free_ids.size)
        assert problem.nodes.size == 5
        ref = _per_row(problem)
        start = problem.pack(chain)
        for x in (start, start + amplitude * rng.standard_normal(problem.ndof)):
            e, e_ref = problem.energy(x), ref.energy(x)
            assert abs(e - e_ref) <= 1e-13 * abs(e_ref)
            for got, want in ((problem.gradient(x), ref.gradient(x)),
                              *zip(problem.hessian_banded(x), ref.hessian_banded(x))):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_rule_is_exact_to_degree_nine(self):
        nodes, weights = row_rule(-7, 12)
        j = np.arange(-7, 13, dtype=float)
        for k in range(10):
            assert weights @ nodes ** k == pytest.approx((j ** k).sum(), rel=1e-12)
        assert weights @ nodes ** 10 != pytest.approx((j ** 10).sum(), rel=1e-6)

    @pytest.mark.parametrize("j_lo, j_hi", [(0, 0), (-1, 1), (-2, 2), (3, 6)])
    def test_short_window_uses_the_rows(self, j_lo, j_hi):
        nodes, weights = row_rule(j_lo, j_hi)
        assert np.allclose(nodes, np.arange(j_lo, j_hi + 1), rtol=0.0, atol=1e-12)
        assert np.allclose(weights, 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("j_lo, j_hi", [(0, 0), (-7, 12), (-100, 100)])
    def test_flat_rule_is_one_node_of_every_row(self, j_lo, j_hi):
        nodes, weights = row_rule(j_lo, j_hi, flat=True)
        assert nodes.tolist() == [0.0]
        assert weights.tolist() == [j_hi - j_lo + 1.0]

    def test_problem_takes_one_node_only_on_a_flat_fixed_tau_stencil(self, wells):
        flat = twin_chain(10, wells)
        assert ChainProblem(flat).nodes.size == 1
        assert ChainProblem(flat, variable_tau=True).nodes.size == 5
        # one rotated column tilts the stencils of its three centers
        theta = flat.theta.copy()
        theta[flat.geometry.atom_index(3)] = 0.01
        assert ChainProblem(flat.with_arrays(theta=theta)).nodes.size == 5


def _admissibility_shape(shape, rng, wells):
    """(start chain, problem) for one free-atom layout of the solver."""
    F = boundary_gradient(wells, 0.5)
    if shape == "fixed_tau":
        chain = random_chain(rng, n=8, dtheta=0.0, wells=wells)
        return chain, ChainProblem(chain)
    if shape == "variable_tau":
        chain = random_chain(rng, n=8, dtheta=0.05, wells=wells)
        return chain, ChainProblem(chain, variable_tau=True)
    if shape == "middle_atom":
        chain = twin_chain(8, wells)
        return chain, ChainProblem(chain, free_ids=[0])
    if shape == "gapped":
        # two runs of free atoms: the checked centers are not one slice
        chain = twin_chain(8, wells)
        return chain, ChainProblem(chain, variable_tau=True, free_ids=[-5, -4, 3, 4])
    return _layer_problem(shape, F, wells.U0, (0.1, -0.05), 6, 3, wells)


class TestAdmissibility:
    @pytest.mark.parametrize("shape", ["fixed_tau", "variable_tau", "middle_atom",
                                       "gapped", "B_plus", "B_minus", "C"])
    def test_stencil_check_matches_the_lattice(self, rng, wells, shape):
        # oracle: the orientation check on the reconstructed lattice
        chain, problem = _admissibility_shape(shape, rng, wells)
        assert check_admissible(reconstruct(chain)) == []
        seen = set()
        for amplitude in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
            for _ in range(6):
                step = amplitude * chain.lam * rng.standard_normal(problem.ndof)
                x = problem.pack(chain) + step
                ok = problem.admissible(x)
                assert ok == (check_admissible(reconstruct(problem.apply(x))) == [])
                seen.add(ok)
        assert seen == {True, False}

    @pytest.mark.parametrize("kind, atom, shift, cell", [
        ("B_plus", -1, (-0.28, -0.047, 0.046), -3),
        ("B_minus", -1, (-0.233, 0.091, 0.057), -3),
    ], ids=["B_plus", "B_minus"])
    def test_lone_free_atom_guards_its_outer_cell(self, wells, kind, atom, shift, cell):
        # the B kinds free one atom across the clamped centre column; moving
        # it flips only the cell on its far side (atoms -3..-1).  B_minus is
        # built as the reflected B_plus, so its shift is the reflection
        # (-u, theta) of the one that flipped cell 1 in the unreflected layout
        F = boundary_gradient(wells, 0.5)
        chain, problem = _layer_problem(kind, F, wells.U0, (0.0, 0.0), 6, 3, wells)
        k = 3 * list(problem.free_ids).index(atom)
        x = problem.pack(chain)
        x[k:k + 3] += shift
        assert {v.i for v in check_admissible(reconstruct(problem.apply(x)))} == {cell}
        assert not problem.admissible(x)


    @pytest.mark.parametrize("u_left, scale, row", [
        ((0.17, -0.14), 0.978, -1),
        ((0.15, -0.14), 0.944, -1),
        ((0.12, -0.14), 0.897, -2),
    ], ids=["vertex_floor", "vertex_ceiling", "lower_row"])
    def test_violation_between_the_end_rows(self, wells, u_left, scale, row):
        # twin n=3, variable tau: turning atoms -1 and 1 opposite ways makes
        # triangle 1 of cell -1 convex in the row index, and the atom shifts
        # pull its minimum below zero at one row strictly inside -4..3.  The
        # vertex of that quadratic sits at -0.97, -1.29 and -1.83, so the
        # violating row is its floor, its ceiling and its floor again
        chain = twin_chain(3, wells)
        problem = ChainProblem(chain, variable_tau=True)
        lam = chain.lam
        step = np.zeros((problem.free_ids.size, 3))
        at = list(problem.free_ids).index
        step[at(-1)] = (lam * u_left[0], lam * u_left[1], 0.09)
        step[at(0)] = (lam * 0.37, lam * -0.19, 0.0)
        step[at(1)] = (lam * -0.02, lam * 0.1, -0.08)
        x = problem.pack(chain)
        below = x + 0.99 * scale * step.ravel()
        assert check_admissible(reconstruct(problem.apply(below))) == []
        assert problem.admissible(below)
        trial = x + scale * step.ravel()
        assert {(v.i, v.j, v.triangle)
                for v in check_admissible(reconstruct(problem.apply(trial)))} == {(-1, row, 1)}
        assert not problem.admissible(trial)


def _random_spd_band(rng, bw, ndof, decades=0.0):
    """A random SPD matrix with min(bw, ndof - 1) superdiagonals, dense.

    Diagonally dominant with a margin, then scaled symmetrically by factors
    spread over `decades` decades, which keeps it SPD.
    """
    h = np.zeros((ndof, ndof))
    for d in range(1, min(bw, ndof - 1) + 1):
        i = np.arange(ndof - d)
        h[i, i + d] = h[i + d, i] = rng.standard_normal(ndof - d)
    h[np.diag_indices(ndof)] = np.abs(h).sum(axis=1) + rng.uniform(0.1, 1.0, ndof)
    scale = 10.0 ** (decades * rng.uniform(-0.5, 0.5, ndof))
    return h * np.outer(scale, scale)


def _dense_to_blocks(h, bw):
    """(D, U) of h as hessian_banded shapes them: blocks of s = max(min(bw,
    ndof - 1), 1) dofs, pad dofs with an identity diagonal and no coupling."""
    ndof = len(h)
    s = max(min(bw, ndof - 1), 1)
    m = -(-ndof // s)
    padded = np.eye(m * s)
    padded[:ndof, :ndof] = h
    blocks = padded.reshape(m, s, m, s)
    i = np.arange(m)
    return blocks[i, :, i], blocks[i[:-1], :, i[1:]]


class TestBandSolve:
    """The block cyclic reduction that replaces LAPACK's banded Cholesky."""

    @pytest.mark.parametrize("bw", [1, 5, 8])
    @pytest.mark.parametrize("size", [lambda bw: 1, lambda bw: 2, lambda bw: bw,
                                      lambda bw: bw + 1, lambda bw: 3 * bw + 2,
                                      lambda bw: 1598],
                             ids=["1", "2", "bw", "bw+1", "3bw+2", "1598"])
    def test_matches_lapack(self, rng, bw, size):
        # 3bw + 2 leaves the last block of bw dofs partly padded (bw > 2)
        ndof = size(bw)
        for _ in range(3):
            h = _random_spd_band(rng, bw, ndof, decades=6.0)
            rhs = rng.standard_normal(ndof)
            x = _levenberg_step(*_dense_to_blocks(h, bw), -rhs).step  # SPD: no shift
            assert np.linalg.norm(h @ x - rhs) <= 1e-12 * np.linalg.norm(h) * np.linalg.norm(x)
            ref = scipy.linalg.solveh_banded(dense_to_band(h, min(bw, ndof - 1)), rhs)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("bw, ndof", [(1, 7), (5, 6), (5, 93), (8, 1), (8, 200)])
    def test_indefinite_band_raises(self, rng, bw, ndof):
        # shifting past the smallest eigenvalue by 1e-6 of it flips the verdict
        h = _random_spd_band(rng, bw, ndof)
        low = np.linalg.eigvalsh(h)[0]
        for shift, definite in ((1.0 - 1e-6) * low, True), ((1.0 + 1e-6) * low, False):
            shifted = h - shift * np.eye(ndof)
            D, U = _dense_to_blocks(shifted, bw)
            rhs = np.ones(D.shape[:2])
            if definite:
                _block_cholesky_solve(D, U, rhs)
            else:
                with pytest.raises(np.linalg.LinAlgError):
                    _block_cholesky_solve(D, U, rhs)
                with pytest.raises(np.linalg.LinAlgError):
                    scipy.linalg.solveh_banded(dense_to_band(shifted, min(bw, ndof - 1)),
                                               rhs.ravel()[:ndof])

    def test_levenberg_shift_matches_lapack(self, wells):
        # the CLI's first Hessian at n = 100 (middle atom preoptimized) is
        # indefinite; the shift sequence 0, 1e-8, 1e-7, ... must stop at the
        # first mu at which LAPACK's banded Cholesky succeeds
        chain = preoptimize_middle(twin_chain(100, wells))
        problem = ChainProblem(chain)
        x = problem.pack(chain)
        D, U = problem.hessian_banded(x)
        bw = 3 * problem.nd - 1
        ab = dense_to_band(blocks_to_dense(D, U, x.size), bw)
        grad = problem.gradient(x)
        mus = [0.0, 1e-8]
        while mus[-1] * 10.0 <= 1e12:
            mus.append(mus[-1] * 10.0)
        for mu in mus:
            shifted = ab.copy()
            shifted[bw] += mu
            try:
                ref = scipy.linalg.solveh_banded(shifted, -grad)
                break
            except np.linalg.LinAlgError:
                pass
        assert mu == pytest.approx(100.0)
        step, shift, factorizations = _levenberg_step(D, U, grad)
        # mu = 0 fails and rules out the rungs below 9.3, 10 fails and rules
        # out those below 22.7, and 100 succeeds
        assert shift == mu
        assert factorizations == 3
        assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)

    @staticmethod
    def _ladder(D, U, grad):
        """The shift, step and rung index of trying each rung in turn."""
        rhs = np.zeros(D.shape[:2])
        rhs.flat[:grad.size] = -grad
        eye = np.eye(D.shape[1])
        for k, mu in enumerate(minimize_mod._SHIFTS):
            try:
                return mu, _block_cholesky_solve(D + mu * eye, U, rhs).ravel()[:grad.size], k
            except np.linalg.LinAlgError:
                pass
        return None, None, len(minimize_mod._SHIFTS)

    @staticmethod
    def _bisection_attempts(first):
        """The factorizations that bisecting the ladder after mu = 0 fails
        takes to find its first successful rung, `first`."""
        if first == 0:
            return 1
        lo, hi, attempts = 0, len(minimize_mod._SHIFTS), 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            attempts += 1
            lo, hi = (lo, mid) if mid >= first else (mid, hi)
        return attempts

    def _traced_search(self, monkeypatch, D, U, grad):
        """`_levenberg_step` with each attempt recorded as (shift, deficit):
        the failure's certified `_Indefinite.deficit`, or None on success."""
        eye = np.eye(D.shape[1])
        tried = []
        solve = minimize_mod._block_cholesky_solve

        def traced(Dmu, *args):
            # the rungs are probed upward; on a large diagonal the least ones
            # may round to the same matrix, which is then one attempt
            after = tried[-1][0] if tried else -1.0
            shift = min(s for s in minimize_mod._SHIFTS
                        if s > after and np.array_equal(Dmu, D + s * eye))
            try:
                out = solve(Dmu, *args)
            except np.linalg.LinAlgError as failed:
                tried.append((shift, failed.deficit))
                raise
            tried.append((shift, None))
            return out

        monkeypatch.setattr(minimize_mod, "_block_cholesky_solve", traced)
        return _levenberg_step(D, U, grad), tried

    @pytest.mark.parametrize("n, first_mu, attempts", [(100, 1e2, 3), (400, 1e3, 4),
                                                        (600, 1e3, 2)],
                             ids=["100", "400", "600"])
    def test_certified_shift_matches_the_linear_ladder(self, wells, monkeypatch, n,
                                                       first_mu, attempts):
        # the first Hessian of the fixed-tau twin is indefinite (lambda_min
        # about -0.81 n); trying the rungs in turn and skipping the certified
        # ones must pick one shift and return one step, bit for bit
        chain = preoptimize_middle(twin_chain(n, wells))
        problem = ChainProblem(chain)
        x = problem.pack(chain)
        D, U = problem.hessian_banded(x)
        grad = problem.gradient(x)
        mu, ref, _ = self._ladder(D, U, grad)
        assert mu == pytest.approx(first_mu)
        (step, shift, factorizations), tried = self._traced_search(monkeypatch, D, U, grad)
        assert factorizations == len(tried) == attempts
        assert min(s for s, deficit in tried if deficit is None) == mu == shift
        assert all(s < mu for s, deficit in tried if deficit is not None)
        assert _same_bits(step, ref)

    @staticmethod
    def _upper_band(D, U, ndof):
        """The LAPACK upper band, s superdiagonals, of the first ndof dofs of
        the block tridiagonal (D, U) whose blocks of s dofs hold a band of
        s superdiagonals, as the Hessian's and `_dense_to_blocks`' do."""
        m, s = D.shape[:2]
        r = np.arange(ndof)
        ab = np.zeros((s + 1, ndof))
        for d in range(min(s, ndof - 1) + 1):
            row, col = r[:ndof - d], r[d:]
            i, a, b = row // s, row % s, col % s
            same = col // s == i
            ab[s - d, d:] = np.where(same, D[i, a, b], U[np.minimum(i, m - 2), a, b])
        return ab

    @staticmethod
    def _twin_hessian(a, n):
        chain = preoptimize_middle(twin_chain(n, build_wells(a)))
        problem = ChainProblem(chain)
        x = problem.pack(chain)
        return (*problem.hessian_banded(x), problem.gradient(x))

    @staticmethod
    def _indefinite_band(bw, ndof, low, seed):
        """A random band with min(bw, ndof - 1) superdiagonals and least
        eigenvalue `low`, in blocks, with a random gradient."""
        rng = np.random.default_rng(seed)
        h = _random_spd_band(rng, bw, ndof, decades=rng.uniform(0.0, 6.0))
        h -= (np.linalg.eigvalsh(h)[0] - low) * np.eye(ndof)
        return (*_dense_to_blocks(h, bw), rng.standard_normal(ndof))

    # the twin's first Hessians, and random bands whose least eigenvalue
    # spans the ladder, rungs included
    SOUNDNESS_CASES = (
        [pytest.param("twin", (np.sqrt(2.0), n), id=f"twin-sqrt2-{n}")
         for n in (100, 200, 400, 600, 1000)]
        + [pytest.param("twin", (a, 200), id=f"twin-{a}-200") for a in (2.0, 1.1)]
        + [pytest.param("band", (bw, ndof, -10.0 ** e, 100 * bw + k),
                        id=f"band-{bw}-{ndof}-1e{e:+g}")
           for bw, ndof in ((1, 40), (5, 93), (8, 200))
           for k, e in enumerate((-9, -5, -3, -1, 0, 0.5, 2, 3.7, 6, 10))])

    @pytest.mark.parametrize("kind, args", SOUNDNESS_CASES)
    def test_carried_floor_is_sound(self, monkeypatch, kind, args):
        # a failure's floor never rules out a rung at which H + mu I is
        # positive definite (by the least eigenvalue of the banded matrix);
        # the step is the ladder's, bit for bit, in no more factorizations
        # than bisecting the ladder took
        D, U, grad = (self._twin_hessian if kind == "twin" else self._indefinite_band)(*args)
        ab = self._upper_band(D, U, grad.size)
        low = scipy.linalg.eigvals_banded(ab, select="i", select_range=(0, 0))[0]
        mu, ref, first = self._ladder(D, U, grad)
        (step, shift, factorizations), tried = self._traced_search(monkeypatch, D, U, grad)
        # up to the eigensolver's rounding: eps |H|_inf times a modest factor
        rows = np.abs(D).sum(axis=2)
        rows[:-1] += np.abs(U).sum(axis=2)
        rows[1:] += np.abs(U).sum(axis=1)
        top = -low + 1e-13 * rows.max()
        floors = [s + deficit for s, deficit in tried if deficit]
        assert all(floor <= top for floor in floors)
        assert shift == mu and _same_bits(step, ref)
        assert factorizations == len(tried) <= self._bisection_attempts(first)


class TestNewton:
    def test_affine_well_is_a_fixed_point(self, wells):
        report = newton_minimize(affine_chain(8, wells, wells.U0))
        assert report.converged and report.iterations == 0
        assert report.stop_reason == "gradient"
        assert chain_energy(report.final_chain).total < 1e-20

    def test_twin_relaxation_small(self, wells):
        report = newton_minimize(twin_chain(8, wells))
        assert report.converged
        assert report.admissibility_violations == 0
        e = np.asarray(report.energy_history)
        assert (np.diff(e) <= 1e-12).all()
        assert check_admissible(reconstruct(report.final_chain)) == []
        final = chain_energy(report.final_chain).rescaled
        assert final == pytest.approx(31.408826, abs=1e-4)

    def test_twin_relaxation_medium(self, wells):
        report = newton_minimize(twin_chain(40, wells))
        assert report.converged
        final = chain_energy(report.final_chain).rescaled
        assert final == pytest.approx(29.013329, abs=1e-4)

    def test_gradient_small_at_solution(self, wells):
        report = newton_minimize(twin_chain(8, wells))
        final = report.final_chain
        problem = ChainProblem(final)
        assert np.abs(problem.gradient(problem.pack(final))).max() < 1e-8

    def test_report_counts_the_factorizations(self, wells, monkeypatch):
        # each step factors once, except the first: the twin's start is a
        # saddle, and its shift takes 3 (TestBandSolve)
        chain = preoptimize_middle(twin_chain(100, wells))
        calls = []
        solve = minimize_mod._block_cholesky_solve

        def counted(*args):
            calls.append(1)
            return solve(*args)
        monkeypatch.setattr(minimize_mod, "_block_cholesky_solve", counted)
        report = newton_minimize(chain)
        assert report.factorizations == len(calls) == report.iterations + 2

    def test_report_histories_align(self, wells):
        report = newton_minimize(twin_chain(8, wells))
        assert len(report.energy_history) == report.iterations + 1
        assert len(report.grad_norm_history) == report.iterations + 1

    @pytest.mark.parametrize("n, warm", [(10, True), (15, True), (25, False), (40, False)])
    def test_converges_below_the_rounding_of_the_energy(self, wells, n, warm):
        # near the minimum the predicted Armijo decrease drops below one ulp
        # of E; full Newton steps must still be accepted there.  warm is the
        # CLI start (middle atom preoptimized), otherwise the raw twin
        chain = twin_chain(n, wells)
        report = newton_minimize(preoptimize_middle(chain) if warm else chain)
        assert report.converged, report.stop_reason
        assert report.iterations <= 10

    def test_max_iters_stops_honestly(self, wells):
        report = newton_minimize(twin_chain(8, wells), MinimizeOptions(max_iters=1))
        assert not report.converged
        assert report.stop_reason == "max iterations"
        assert report.iterations == 1

    @pytest.mark.parametrize("variable_tau", [False, True], ids=["fixed-tau", "variable-tau"])
    def test_opts_that_contradict_the_problem_raise(self, wells, variable_tau):
        chain = twin_chain(20, wells)
        problem = ChainProblem(chain, variable_tau=variable_tau)
        with pytest.raises(ValueError, match="variable_tau"):
            newton_minimize(chain, MinimizeOptions(variable_tau=not variable_tau),
                            problem=problem)
        # agreeing options are read: here their iteration cap
        report = newton_minimize(chain, MinimizeOptions(variable_tau=variable_tau,
                                                        max_iters=1), problem=problem)
        assert report.stop_reason == "max iterations"
        # the problem alone sets the variables: with variable tau the angles move
        theta = newton_minimize(chain, problem=problem).final_chain.theta
        assert (np.abs(theta).max() > 1e-3) == variable_tau


class TestDecayRates:
    """Small displacements of an affine chain at a well obey the linear
    recurrence sum_d A_d u_{i+d} = 0, d = -2..2, with A_d the middle atom's
    2x2 Hessian blocks at fixed tau.  Its decaying roots z give the boundary
    layer's rates -ln|z| = ln(5 + 2 sqrt 6) and 2 ln(2 + sqrt 3) at every
    stretch and at both wells; the other four roots lie on |z| = 1."""

    RATES = np.array([math.log(5 + 2 * math.sqrt(6)), 2 * math.log(2 + math.sqrt(3))])

    @pytest.mark.parametrize("a", [1.01, 1.1, math.sqrt(2.0), 2.0])
    @pytest.mark.parametrize("well", ["U0", "QU1"])
    def test_rates_are_lattice_constants(self, a, well):
        wells = build_wells(a)
        n = 12
        chain = affine_chain(n, wells, getattr(wells, well))
        problem = ChainProblem(chain)
        x = problem.pack(chain)
        H = blocks_to_dense(*problem.hessian_banded(x), x.size)
        mid = 2 * (n - 1)  # the first dof of atom 0 among the free atoms -n+1..n-1
        A = [H[mid:mid + 2, mid + 2 * d:mid + 2 * d + 2] for d in range(-2, 3)]
        # companion matrix of the state (u_{i-2}, ..., u_{i+1}) -> (u_{i-1}, ..., u_{i+2})
        C = np.zeros((8, 8))
        C[:6, 2:] = np.eye(6)
        C[6:] = -np.linalg.solve(A[4], np.hstack(A[:4]))
        rates = np.sort(-np.log(np.abs(np.linalg.eigvals(C))))
        assert np.abs(rates[6:] - self.RATES).max() <= 1e-12
        assert np.abs(rates[:2] + self.RATES[::-1]).max() <= 1e-12
        assert np.abs(rates[2:6]).max() <= 1e-6


class TestStoppingRule:
    """Large chains and flat layer modes stop at the floor they can reach."""

    @pytest.mark.parametrize("n", [600, 1000])
    def test_large_fixed_tau_twin_stops_on_the_relative_gradient(self, wells, n):
        # an absolute 1e-10 bound sits below the rounding floor of |g| here
        # (1.33e-10 at n = 600, 2.04e-10 at n = 1000)
        report = newton_minimize(preoptimize_middle(twin_chain(n, wells)))
        assert report.converged
        assert report.stop_reason == "gradient"
        assert report.iterations < 20
        assert report.grad_norm_history[-1] <= 1e-10 * report.grad_norm_history[0]

    def test_variable_tau_twin_stops(self, wells):
        chain = preoptimize_middle(twin_chain(400, wells))
        report = newton_minimize(chain, MinimizeOptions(variable_tau=True))
        assert report.converged, report.stop_reason
        assert report.iterations < 20

    def test_flat_layer_mode_stops_at_the_energy_floor(self, wells):
        # the kink position of a boundary layer at a small vertical offset is
        # nearly flat: |g| stalls near 1e-7 while E no longer moves
        F = boundary_gradient(wells, 0.5)
        chain, problem = _layer_problem("B_plus", F, wells.U0, (0.0, 0.01), 12, 4, wells)
        report = newton_minimize(chain, problem=problem)
        assert report.converged
        assert report.stop_reason == "energy floor"
        assert report.iterations < 20
        e = report.energy_history
        assert e[-2] - e[-1] <= 16.0 * np.finfo(float).eps * abs(e[-2])


class TestPreoptimize:
    def test_middle_atom_descends(self, wells):
        raw = twin_chain(40, wells)
        tuned = preoptimize_middle(raw)
        before = chain_energy(raw).rescaled
        after = chain_energy(tuned).rescaled
        assert after < before
        assert after == pytest.approx(37.2219, abs=1e-3)
        # clamps and every other atom untouched
        k = raw.geometry.atom_index(0)
        mask = np.ones(len(raw.u), dtype=bool)
        mask[k] = False
        assert np.array_equal(tuned.u[mask], raw.u[mask])


def _hand_written_twin(n, wells, column):
    """The two-branch twin formula: U0 x up to the interface, Q U1 x + offset
    beyond it, with the offset that joins them at the interface atom."""
    lam = 1.0 / n
    A, B = wells.U0, wells.QU1
    offset = (A - B) @ np.array([column * lam, 0.0])
    ids = np.arange(-n - 2, n + 3)
    x = np.stack([ids * lam, np.zeros_like(ids, dtype=float)], axis=-1)
    u = np.where((ids <= column)[:, None], x @ A.T, x @ B.T + offset)
    return u, (A, np.zeros(2), B, offset)


class TestConstructors:
    # interior, far-off-centre and the `--lambda 0.3` / `--lambda 0.1` columns
    @pytest.mark.parametrize("n, column", [
        (8, 0), (8, 3), (8, -7), (40, -24), (40, 32), (40, -32), (50, -20),
        (100, -60), (100, 80), (100, -40), (101, -40), (400, -240), (400, 320)])
    def test_twin_matches_the_two_branch_formula_bit_for_bit(self, wells, n, column):
        chain = twin_chain(n, wells, interface_column=column)
        u, clamp = _hand_written_twin(n, wells, column)
        assert np.array_equal(chain.u.view(np.int64), u.view(np.int64))
        bc = chain.bc
        for got, want in zip((bc.V_left, bc.r_left, bc.V_right, bc.r_right), clamp):
            assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64))

    def test_twin_interface_can_shift(self, wells):
        chain = twin_chain(8, wells, interface_column=2)
        assert check_admissible(reconstruct(chain)) == []
        ids = np.arange(-chain.n, chain.n + 1)
        hot = np.nonzero(chain_local_grid(chain, ids, ids).sum(axis=1) > 1e-12)[0]
        assert list(hot) == [chain.n + 2]

    def test_twin_interface_bounds(self, wells):
        with pytest.raises(ValueError):
            twin_chain(8, wells, interface_column=8)
        with pytest.raises(ValueError):
            twin_chain(8, wells, interface_column=-9)

    def test_laminate_variants_symmetric(self, wells):
        e = []
        for variant in (0, 1):
            chain = laminate_chain(20, wells, 0.5, variant=variant)
            assert check_admissible(reconstruct(chain)) == []
            e.append(chain_energy(chain).rescaled)
        assert e[0] == pytest.approx(116.444768, abs=1e-4)
        assert e[0] == pytest.approx(e[1], rel=1e-12)

    def test_laminate_relaxes(self, wells):
        chain = laminate_chain(20, wells, 0.5)
        report = newton_minimize(chain)
        assert report.converged
        assert chain_energy(report.final_chain).total < chain_energy(chain).total

    def test_laminate_fraction_validated(self, wells):
        with pytest.raises(ValueError):
            laminate_chain(20, wells, 0.0)
        with pytest.raises(ValueError):
            laminate_chain(20, wells, 1.0)

    @pytest.mark.parametrize("variant", [-1, 2, 0.5])
    def test_laminate_variant_validated(self, wells, variant):
        with pytest.raises(ValueError, match="variant"):
            laminate_chain(20, wells, 0.5, variant=variant)

