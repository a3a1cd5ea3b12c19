"""Random admissible chains and Hessian layouts shared by the test modules.

The solver's Hessian is block tridiagonal: diagonal blocks D (m, s, s) and
superdiagonal blocks U (m - 1, s, s) over dofs padded to m * s.
`blocks_to_dense` expands it for finite-difference checks, and
`dense_to_band` writes a dense matrix in LAPACK's upper band layout, the
input of `scipy.linalg.solveh_banded`, the reference solver.
"""

import numpy as np

from twinchain.lattice import affine_chain, check_admissible, reconstruct
from twinchain.minimize import twin_chain
from twinchain.wells import build_wells


def random_chain(rng, n=8, a=None, base="twin", du=0.05, dtheta=None, wells=None):
    """Admissible chain: a reference profile plus a damped random perturbation.

    Perturbation amplitudes halve until the orientation check passes; sizes
    du ~ 0.05 atom spacings and dtheta ~ 0.2/n stay admissible on the first
    try almost always.
    """
    wells = wells or build_wells(a if a is not None else np.sqrt(2.0))
    if base == "twin":
        ref = twin_chain(n, wells)
    elif base == "affine0":
        ref = affine_chain(n, wells, wells.U0)
    elif base == "affine1":
        ref = affine_chain(n, wells, wells.QU1)
    else:
        raise ValueError(f"unknown base {base!r}")
    if dtheta is None:
        dtheta = 0.2 / n
    geom = ref.geometry
    free = np.abs(geom.atom_ids()) < n
    for _ in range(20):
        u = ref.u.copy()
        theta = ref.theta.copy()
        u[free] += du * ref.lam * rng.standard_normal((free.sum(), 2))
        theta[free] += dtheta * rng.standard_normal(free.sum())
        chain = ref.with_arrays(u=u, theta=theta)
        if not check_admissible(reconstruct(chain)):
            return chain
        du *= 0.5
        dtheta *= 0.5
    raise RuntimeError("could not generate an admissible perturbation")


def blocks_to_dense(D, U, ndof):
    """Full symmetric matrix of the first ndof dofs of the block tridiagonal
    (D, U) that `ChainProblem.hessian_banded` returns."""
    m, s = D.shape[:2]
    h = np.zeros((m, s, m, s))
    i = np.arange(m)
    h[i, :, i] = D
    h[i[:-1], :, i[1:]] = U
    h[i[1:], :, i[:-1]] = U.swapaxes(1, 2)
    return h.reshape(m * s, m * s)[:ndof, :ndof]


def dense_to_band(h, bw):
    """The LAPACK upper band layout of symmetric h, ab[bw + r - c, c] = h[r, c]."""
    ab = np.zeros((bw + 1, len(h)))
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(h, d)
    return ab
