"""Random admissible chains and band expansion shared by the test modules."""

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


def banded_to_dense(ab, bw):
    """Full symmetric matrix from the LAPACK upper band layout (bw superdiagonals)."""
    ndof = ab.shape[1]
    h = np.zeros((ndof, ndof))
    for d in range(bw + 1):
        h += np.diag(ab[bw - d, d:], k=d)
        if d:
            h += np.diag(ab[bw - d, d:], k=-d)
    return h
