"""Two-well geometry for a planar square-to-rectangle transformation.

The stretch matrices U0 = diag(a, 1/a) and U1 = diag(1/a, a) generate the
energy wells SO(2)*U0 and SO(2)*U1 of a volume-preserving two-variant
material.  Each well element is rank-one connected to exactly two rotations
of the other variant; the connecting rotations are the roots of

    det(U0 - R(theta) U1) = 0,

which for b = 1/a gives cos(theta) = 2ab/(a^2+b^2), i.e. theta = +/-gamma
with sin(gamma) = (a^2-b^2)/(a^2+b^2).  We call Q = R(gamma) the connection
whose jump U0 - Q U1 has interface normal (1, 1)/sqrt(2) and Qtilde = R(-gamma)
the one with normal (1, -1)/sqrt(2).

Chains extend along tau = (-a, b): every admissible gradient (U0, Q U1 and
any convex combination of them) maps (-1, 1) to tau, so the diagonal lattice
direction deforms consistently across variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WellPair",
    "rotation",
    "build_wells",
    "boundary_gradient",
    "dist_to_well",
]


def rotation(theta):
    """Rotation matrix R(theta); accepts scalars or arrays (stacked output)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(theta.shape + (2, 2))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def _locked(arr):
    """Contiguous read-only float array (the input itself when it already is one)."""
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class WellPair:
    """The two stretch matrices, their connecting rotations and the chain direction."""

    a: float
    b: float
    U0: np.ndarray
    U1: np.ndarray
    Q: np.ndarray
    Qtilde: np.ndarray
    tau: np.ndarray

    @property
    def connection_angle(self) -> float:
        """Angle gamma of Q."""
        return float(np.arctan2(self.Q[1, 0], self.Q[0, 0]))

    @property
    def QU1(self) -> np.ndarray:
        return self.Q @ self.U1

    def tau_at(self, theta):
        """Extension vectors R(theta) tau, stacked on a trailing axis of length 2."""
        c, s = np.cos(theta), np.sin(theta)
        tx, ty = self.tau
        return np.stack([c * tx - s * ty, s * tx + c * ty], axis=-1)


def build_wells(a: float) -> WellPair:
    """Construct the well pair for horizontal stretch a (vertical is 1/a)."""
    a = float(a)
    if not np.isfinite(a) or a <= 0.0:
        raise ValueError(f"stretch must be positive and finite, got {a!r}")
    if abs(a - 1.0) < 1e-12:
        raise ValueError("a = 1 collapses both wells onto SO(2)")
    b = 1.0 / a
    gamma = np.arctan2(a * a - b * b, 2.0 * a * b)
    U0 = np.diag([a, b])
    U1 = np.diag([b, a])
    Q = rotation(gamma)
    Qt = rotation(-gamma)
    tau = np.array([-a, b])

    # both factorizations must be exactly rank one: residual against the
    # closed-form dyad stays at rounding level.  A square that overflows
    # leaves no residual to check (and no finite tolerance)
    kappa = (a * a - b * b) / (a * a + b * b)
    jump = U0 - Q @ U1
    dyad = kappa * np.outer([a, -b], [1.0, 1.0])
    if not (np.isfinite(a * a + b * b)
            and np.allclose(jump, dyad, rtol=0.0, atol=1e-12 * max(1.0, a * a))):
        raise ValueError(f"rank-one factorization residual too large for a = {a!r}")

    return WellPair(a=a, b=b, U0=_locked(U0), U1=_locked(U1), Q=_locked(Q),
                    Qtilde=_locked(Qt), tau=_locked(tau))


def boundary_gradient(wells: WellPair, lam: float) -> np.ndarray:
    """The boundary mixture F = (1-lam) U0 + lam Q U1, locked."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"volume fraction must lie in [0, 1], got {lam!r}")
    return _locked((1.0 - lam) * wells.U0 + lam * (wells.Q @ wells.U1))


def dist_to_well(M, U):
    """Frobenius distance from M to the well SO(2)U and the minimizing angle.

    The optimum is attained at R(theta*) with theta* = atan2(S21 - S12,
    S11 + S22), S = M U^T.  The distance is evaluated as the residual norm
    |M - R(theta*)U| rather than via the expanded square, which would lose
    half the digits near the well.  M may be a stack (..., 2, 2); the 2x2
    products are written out per component, so no stacked temporaries form.
    """
    M = np.asarray(M, dtype=float)
    (u00, u01), (u10, u11) = np.asarray(U, dtype=float).tolist()
    m00, m01 = M[..., 0, 0], M[..., 0, 1]
    m10, m11 = M[..., 1, 0], M[..., 1, 1]
    tr = (m00 * u00 + m01 * u01) + (m10 * u10 + m11 * u11)
    anti = (m10 * u00 + m11 * u01) - (m00 * u10 + m01 * u11)
    angle = np.arctan2(anti, tr)
    c, s = np.cos(angle), np.sin(angle)
    r00 = m00 - (c * u00 - s * u10)
    r01 = m01 - (c * u01 - s * u11)
    r10 = m10 - (s * u00 + c * u10)
    r11 = m11 - (s * u01 + c * u11)
    dist = np.sqrt(((r00 * r00 + r01 * r01) + r10 * r10) + r11 * r11)
    if dist.ndim == 0:
        return float(dist), float(angle)
    return dist, angle
