"""Oracle and property tests for the two-well geometry."""

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinchain.wells import (
    boundary_gradient,
    build_wells,
    dist_to_well,
    rotation,
)


def rank_one_angles(a, grid=20000, tol=1e-13):
    """Scan-and-bisect oracle for the roots of det(U0 - R(theta) U1) on (-pi, pi].

    Independent of the closed form: evaluates the determinant on a dense grid
    and bisects every sign change down to tol.
    """
    b = 1.0 / a
    U0 = np.diag([a, b])
    U1 = np.diag([b, a])

    def det(theta):
        return float(np.linalg.det(U0 - rotation(theta) @ U1))

    thetas = np.linspace(-np.pi, np.pi, grid)
    vals = np.array([det(t) for t in thetas])
    roots = []
    for k in range(grid - 1):
        if vals[k] == 0.0:
            roots.append(thetas[k])
            continue
        if vals[k] * vals[k + 1] < 0.0:
            lo, hi = thetas[k], thetas[k + 1]
            flo = vals[k]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = det(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return sorted(roots)


@lru_cache(maxsize=None)
def _theta_grid(grid):
    """theta grid on [-pi, pi] with its cosines and sines, built once per size."""
    thetas = np.linspace(-np.pi, np.pi, grid)
    return thetas, np.cos(thetas), np.sin(thetas)


@lru_cache(maxsize=None)
def _rotation_grid(grid):
    return rotation(np.linspace(-np.pi, np.pi, grid))


def dist_scan_oracle(M, U, grid=2_000_001):
    """Brute-force distance to SO(2)U: minimize |M - R(theta)U| over a theta grid."""
    thetas, cos, sin = _theta_grid(grid)
    # |M - RU|^2 = |M|^2 + |U|^2 - 2(tr S cos + (S21-S12) sin), S = M U^T
    S = M @ U.T
    tr = S[0, 0] + S[1, 1]
    anti = S[1, 0] - S[0, 1]
    proj = tr * cos + anti * sin
    k = int(np.argmax(proj))
    d2 = (M * M).sum() + (U * U).sum() - 2.0 * proj[k]
    return np.sqrt(max(d2, 0.0)), thetas[k]


def dist_matrix_oracle(M, U, grid=400_001):
    """Second-layer oracle: explicit matrix norms, no trig identity at all."""
    R = _rotation_grid(grid)
    diffs = M - R @ U
    return float(np.sqrt((diffs * diffs).sum(axis=(1, 2))).min())


class TestConnectionAngle:
    def test_scan_oracle_finds_two_roots_symmetric(self):
        wells = build_wells(np.sqrt(2.0))
        roots = rank_one_angles(wells.a)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(-roots[1], abs=1e-10)
        gamma = wells.connection_angle
        assert gamma == pytest.approx(roots[1], abs=1e-10)

    def test_sin_gamma_at_default_stretch(self):
        wells = build_wells(np.sqrt(2.0))
        gamma = wells.connection_angle
        assert np.sin(gamma) == pytest.approx(0.6, abs=1e-12)
        assert np.cos(gamma) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("a", [1.1, np.sqrt(2.0), 2.0, 3.7])
    def test_closed_form_matches_scan(self, a):
        wells = build_wells(a)
        roots = rank_one_angles(a)
        assert wells.connection_angle == pytest.approx(max(roots), abs=1e-10)
        qt_angle = float(np.arctan2(wells.Qtilde[1, 0], wells.Qtilde[0, 0]))
        assert qt_angle == pytest.approx(min(roots), abs=1e-10)

    @pytest.mark.parametrize("a", [1.1, np.sqrt(2.0), 2.0])
    def test_jump_is_rank_one(self, a):
        wells = build_wells(a)
        for Qc in (wells.Q, wells.Qtilde):
            jump = wells.U0 - Qc @ wells.U1
            assert np.linalg.det(jump) == pytest.approx(0.0, abs=1e-12)
            assert np.linalg.norm(jump) > 0.1

    def test_tau_is_common_image_of_diagonal(self):
        wells = build_wells(np.sqrt(2.0))
        diag = np.array([-1.0, 1.0])
        assert np.allclose(wells.U0 @ diag, wells.tau, atol=1e-14)
        assert np.allclose(wells.Q @ wells.U1 @ diag, wells.tau, atol=1e-14)


class TestBoundaryGradient:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 1.0])
    def test_unit_determinant(self, lam):
        wells = build_wells(np.sqrt(2.0))
        F = boundary_gradient(wells, lam)
        assert np.linalg.det(F) == pytest.approx(1.0, abs=1e-13)

    def test_endpoints_hit_the_wells(self):
        wells = build_wells(np.sqrt(2.0))
        assert np.allclose(boundary_gradient(wells, 0.0), wells.U0)
        assert np.allclose(boundary_gradient(wells, 1.0), wells.QU1)

    def test_maps_diagonal_to_tau(self):
        wells = build_wells(1.7)
        for lam in (0.1, 0.6, 0.9):
            F = boundary_gradient(wells, lam)
            assert np.allclose(F @ [-1.0, 1.0], wells.tau, atol=1e-14)

    @pytest.mark.parametrize("lam", [-0.1, 1.5, np.nan])
    def test_rejects_bad_fraction(self, lam):
        wells = build_wells(np.sqrt(2.0))
        with pytest.raises(ValueError):
            boundary_gradient(wells, lam)


class TestDistToWell:
    def test_identity_to_primary_well(self):
        # dist(I, SO(2)U0)^2 = 4.5 - 3 sqrt(2) at a = sqrt 2, worked by hand
        wells = build_wells(np.sqrt(2.0))
        d, _ = dist_to_well(np.eye(2), wells.U0)
        assert d == pytest.approx(np.sqrt(4.5 - 3.0 * np.sqrt(2.0)), abs=1e-14)

    def test_on_well_distance_vanishes(self):
        wells = build_wells(np.sqrt(2.0))
        for theta in (-2.5, 0.0, 0.3, 1.9):
            d, ang = dist_to_well(rotation(theta) @ wells.U1, wells.U1)
            assert d == pytest.approx(0.0, abs=1e-13)
            assert ang == pytest.approx(theta, abs=1e-12)

    def test_matches_scan_oracle_on_random_matrices(self, rng):
        wells = build_wells(np.sqrt(2.0))
        for _ in range(60):
            M = rng.normal(size=(2, 2)) * rng.uniform(0.2, 3.0)
            for U in (wells.U0, wells.U1):
                d, ang = dist_to_well(M, U)
                d_ref, ang_ref = dist_scan_oracle(M, U)
                assert d == pytest.approx(d_ref, abs=1e-10)
                if d > 1e-6:
                    assert np.cos(ang - ang_ref) == pytest.approx(1.0, abs=1e-10)

    def test_matches_matrix_norm_oracle(self, rng):
        # slower second layer with no shared algebra at all
        wells = build_wells(np.sqrt(2.0))
        for _ in range(50):
            M = rng.normal(size=(2, 2))
            d, _ = dist_to_well(M, wells.U0)
            assert d == pytest.approx(dist_matrix_oracle(M, wells.U0), abs=1e-8)

    def test_midpoint_of_jump_is_equidistant(self):
        wells = build_wells(np.sqrt(2.0))
        mid = 0.5 * (wells.U0 + wells.QU1)
        d0, _ = dist_to_well(mid, wells.U0)
        d1, _ = dist_to_well(mid, wells.U1)
        assert d0 == pytest.approx(d1, abs=1e-13)

    def test_batched_agrees_with_loop(self, rng):
        wells = build_wells(np.sqrt(2.0))
        stack = rng.normal(size=(7, 5, 2, 2))
        d, ang = dist_to_well(stack, wells.U0)
        assert d.shape == (7, 5) and ang.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                di, ai = dist_to_well(stack[i, j], wells.U0)
                assert d[i, j] == pytest.approx(di, abs=0.0)
                assert ang[i, j] == pytest.approx(ai, abs=0.0)


def dist_to_well_stacked(M, U):
    """The stacked-matmul form of dist_to_well, kept as a rounding reference."""
    S = M @ U.T
    tr = S[..., 0, 0] + S[..., 1, 1]
    anti = S[..., 1, 0] - S[..., 0, 1]
    angle = np.arctan2(anti, tr)
    resid = M - rotation(angle) @ U
    return np.sqrt((resid * resid).sum(axis=(-2, -1))), angle


class TestClosedFormDistance:
    """dist_to_well writes the 2x2 products out; it must round like the matmuls."""

    def test_diagonal_wells_match_bit_for_bit(self, rng):
        wells = build_wells(np.sqrt(2.0))
        stack = rng.normal(size=(40, 30, 2, 2)) * rng.uniform(0.2, 3.0, size=(40, 30, 1, 1))
        for U in (wells.U0, wells.U1):
            d, ang = dist_to_well(stack, U)
            d_ref, ang_ref = dist_to_well_stacked(stack, U)
            assert np.array_equal(d, d_ref)
            assert np.array_equal(ang, ang_ref)

    def test_rotated_wells_match_to_rounding(self, rng):
        wells = build_wells(np.sqrt(2.0))
        stack = rng.normal(size=(40, 30, 2, 2))
        for U in (wells.QU1, wells.Q):
            d, ang = dist_to_well(stack, U)
            d_ref, ang_ref = dist_to_well_stacked(stack, U)
            assert np.abs(d - d_ref).max() <= 1e-14
            # atan2 amplifies a rounding change in (tr, anti) by |M||U| / |(tr, anti)|,
            # so the angle bound scales with that condition number where it exceeds 1
            S = stack @ U.T
            rho = np.hypot(S[..., 0, 0] + S[..., 1, 1], S[..., 1, 0] - S[..., 0, 1])
            cond = np.maximum(1.0, np.linalg.norm(stack, axis=(-2, -1))
                              * np.linalg.norm(U) / rho)
            assert (np.abs(ang - ang_ref) <= 1e-13 * cond).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=st.floats(min_value=1.05, max_value=4.0),
    theta=st.floats(min_value=-3.1, max_value=3.1),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_distance_is_rotation_invariant(a, theta, seed):
    wells = build_wells(a)
    M = np.random.default_rng(seed).normal(size=(2, 2))
    d0, _ = dist_to_well(M, wells.U0)
    d1, _ = dist_to_well(rotation(theta) @ M, wells.U0)
    assert d1 == pytest.approx(d0, abs=1e-11 * (1.0 + d0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(min_value=1.05, max_value=4.0))
def test_wells_are_reciprocal(a):
    wells = build_wells(a)
    assert wells.b == pytest.approx(1.0 / a, rel=1e-15)
    assert np.linalg.det(wells.U0) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.det(wells.U1) == pytest.approx(1.0, abs=1e-13)
    # Q is a proper rotation
    assert np.allclose(wells.Q @ wells.Q.T, np.eye(2), atol=1e-13)
    assert np.linalg.det(wells.Q) == pytest.approx(1.0, abs=1e-13)


def test_rejects_degenerate_stretch():
    with pytest.raises(ValueError):
        build_wells(1.0)
    with pytest.raises(ValueError):
        build_wells(-2.0)
    with pytest.raises(ValueError):
        build_wells(0.0)


@pytest.mark.parametrize("a", [1e200, 1e-200])
def test_overflowing_stretch_rejected_without_warning(a):
    # a * a (or 1/a squared) overflows: rejected before the tolerance turns inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rank-one factorization"):
            build_wells(a)
