"""Reconstruction, admissibility, and snapshot round-trip checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaingen import random_chain
from twinchain.lattice import (
    GHOST,
    BoundaryClamp,
    ChainState,
    LatticeGeometry,
    affine_chain,
    check_admissible,
    load_chain,
    piecewise_chain,
    reconstruct,
    save_chain,
)
from twinchain.minimize import twin_chain
from twinchain.wells import build_wells


@pytest.fixture(scope="module")
def wells():
    return build_wells(np.sqrt(2.0))


class TestGeometry:
    def test_spacing_follows_half_width(self):
        assert LatticeGeometry(n=8).lambda_n == pytest.approx(1 / 8)
        assert LatticeGeometry(n=8, rescaled=True).lambda_n == 1.0

    def test_atom_indexing_covers_ghosts(self):
        geom = LatticeGeometry(n=5)
        ids = geom.atom_ids()
        assert ids[0] == -5 - GHOST and ids[-1] == 5 + GHOST
        assert geom.atom_count == len(ids)
        assert geom.atom_index(-5 - GHOST) == 0

    def test_rejects_tiny_half_width(self):
        with pytest.raises(ValueError):
            LatticeGeometry(n=1)


class TestChainValidation:
    def test_clamp_mismatch_rejected(self, wells):
        base = affine_chain(6, wells, wells.U0)
        u = base.u.copy()
        u[0] += 0.5  # a ghost atom
        with pytest.raises(ValueError, match="boundary value"):
            base.with_arrays(u=u)

    def test_clamp_theta_rejected(self, wells):
        base = affine_chain(6, wells, wells.U0)
        theta = base.theta.copy()
        theta[-1] = 0.1
        with pytest.raises(ValueError, match="theta"):
            base.with_arrays(theta=theta)

    def test_interior_atoms_are_free(self, wells):
        base = affine_chain(6, wells, wells.U0)
        u = base.u.copy()
        u[base.geometry.atom_index(0)] += (0.3, -0.2)
        base.with_arrays(u=u)  # no exception

    def test_shape_mismatch_rejected(self, wells):
        geom = LatticeGeometry(n=4)
        bc = BoundaryClamp.pieces(wells.U0, (0.0, 0.0), wells.U0, (0.0, 0.0))
        with pytest.raises(ValueError, match="shape"):
            ChainState(geometry=geom, wells=wells, bc=bc,
                       u=np.zeros((3, 2)), theta=np.zeros(geom.atom_count))


class TestPiecewiseChain:
    def test_pieces_meet_at_their_columns(self, wells):
        lam = 0.1
        V = [wells.U0, wells.QU1, wells.U0, wells.QU1]
        chain = piecewise_chain(10, wells, [-4, 2, 6], V, offset=(0.2, -0.1))
        ids = chain.geometry.atom_ids()
        # atoms -12..-4, -3..2, 3..6 and 7..12
        piece = np.repeat([0, 1, 2, 3], [9, 6, 4, 6])
        # each cell's difference is the gradient of the piece of its right atom
        h = np.diff(chain.u, axis=0) / lam
        want = np.array([V[k] @ [1.0, 0.0] for k in piece[1:]])
        assert np.allclose(h, want, rtol=0.0, atol=1e-13)
        assert np.array_equal(chain.u[0], V[0] @ [ids[0] * lam, 0.0] + (0.2, -0.1))
        # the clamps are the first and last pieces
        assert np.array_equal(chain.bc.V_left, V[0])
        assert np.array_equal(chain.bc.V_right, V[-1])
        assert np.array_equal(chain.bc.r_left, (0.2, -0.1))
        assert np.allclose(chain.bc.positions(ids[-3:], lam), chain.u[-3:],
                           rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("columns, count", [
        ([0], 1), ([0], 3), ([], 0), ([-2, 3], 2)])
    def test_gradient_count_must_match(self, wells, columns, count):
        with pytest.raises(ValueError, match="gradients"):
            piecewise_chain(6, wells, columns, [wells.U0] * count)

    @pytest.mark.parametrize("columns", [
        [3, 3], [2, -1], [-7], [7], [0, 6.5], [np.nan]])
    def test_columns_must_increase_inside_the_patch(self, wells, columns):
        with pytest.raises(ValueError, match="strictly increase"):
            piecewise_chain(6, wells, columns, [wells.U0] * (len(columns) + 1))


class TestReconstruct:
    def test_pairwise_constraint_exact(self, wells, rng):
        chain = random_chain(rng, n=7)
        field = reconstruct(chain)
        gap = field.positions[:, :-1] - field.positions[:, 1:]
        want = -chain.lam * chain.tau_vectors
        # constraint pos(i,j) - pos(i,j+1) = -lam tau^i for every row pair
        assert np.abs(gap - want[:, None, :]).max() < 1e-13

    def test_affine_chain_reproduces_its_gradient(self, wells):
        # any average of the two wells keeps the column constraint V(-1,1) = tau
        for V in (wells.U0, wells.QU1, 0.5 * (wells.U0 + wells.QU1)):
            chain = affine_chain(9, wells, V, offset=(0.3, -0.1))
            field = reconstruct(chain)
            assert np.abs(field.gradients - V).max() < 1e-12

    def test_generic_matrix_gets_constrained_column(self, wells):
        """Off-manifold V: horizontal column is honored, vertical is forced."""
        V = np.array([[1.2, 0.1], [0.0, 0.9]])
        field = reconstruct(affine_chain(9, wells, V))
        g = field.gradients[field.grad_index(0, 0)]
        assert np.abs(g[:, 0] - V[:, 0]).max() < 1e-12
        tau = np.array([-wells.a, wells.b])
        assert np.abs(g[:, 1] - (V[:, 0] + tau)).max() < 1e-12

    def test_twin_gradients_take_both_well_values(self, wells):
        field = reconstruct(twin_chain(8, wells))
        g = field.gradients
        left = g[field.grad_index(-5, 0)]
        right = g[field.grad_index(5, 0)]
        assert np.abs(left - wells.U0).max() < 1e-12
        assert np.abs(right - wells.QU1).max() < 1e-12

    def test_extract_inverts_reconstruct(self, rng):
        # row j = 0 is the generating chain, and each column's step from row
        # 0 to row 1 is its rotated tau
        chain = random_chain(rng, n=6, dtheta=0.05)
        field = reconstruct(chain)
        ids = chain.geometry.atom_ids()
        row0 = field.positions[field.pos_index(ids, 0)]
        row1 = field.positions[field.pos_index(ids, 1)]
        assert np.abs(row0 - chain.u).max() < 1e-12
        assert np.abs((row1 - row0) / chain.lam - chain.tau_vectors).max() < 1e-12

    def test_positions_indexing(self, wells):
        chain = affine_chain(5, wells, wells.U0)
        field = reconstruct(chain)
        ii, jj = field.pos_index(0, 0)
        assert np.abs(field.positions[ii, jj] - chain.u[chain.geometry.atom_index(0)]).max() == 0.0


class TestAdmissibility:
    def test_affine_and_twin_are_admissible(self, wells):
        assert check_admissible(reconstruct(affine_chain(6, wells, wells.U0))) == []
        assert check_admissible(reconstruct(twin_chain(6, wells))) == []

    def test_reflected_atom_detected(self, wells):
        chain = affine_chain(6, wells, wells.U0)
        u = chain.u.copy()
        k = chain.geometry.atom_index(0)
        # push an atom past its right neighbor; some triangle must flip
        u[k] += (3.0 * chain.lam * wells.a, 0.0)
        bad = check_admissible(reconstruct(chain.with_arrays(u=u)))
        assert bad
        assert any(v.det < 0 for v in bad)
        assert all(abs(v.i) <= 2 for v in bad)


class TestSnapshot:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        chain = random_chain(rng, n=6)
        path = tmp_path / "chain.txt"
        save_chain(chain, path)
        back = load_chain(path)
        assert np.array_equal(back.u, chain.u)
        assert np.array_equal(back.theta, chain.theta)
        assert back.n == chain.n
        assert np.array_equal(back.bc.V_right, chain.bc.V_right)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a snapshot\n")
        with pytest.raises(ValueError, match="snapshot"):
            load_chain(path)

    def test_rejects_truncated_body(self, wells, rng, tmp_path):
        chain = random_chain(rng, n=6)
        path = tmp_path / "chain.txt"
        save_chain(chain, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ValueError, match="atom rows"):
            load_chain(path)


@settings(max_examples=40, derandomize=True)
@given(st.integers(min_value=-4, max_value=4), st.floats(-0.05, 0.05))
def test_constraint_survives_any_column_angle(column, angle):
    """Rotating one column's extension keeps the constraint exact."""
    wells = build_wells(np.sqrt(2.0))
    chain = affine_chain(5, wells, wells.U0)
    theta = chain.theta.copy()
    theta[chain.geometry.atom_index(column)] = angle
    field = reconstruct(chain.with_arrays(theta=theta))
    gap = field.positions[:, :-1] - field.positions[:, 1:]
    want = -chain.lam * field.chain.tau_vectors
    assert np.abs(gap - want[:, None, :]).max() < 1e-13
