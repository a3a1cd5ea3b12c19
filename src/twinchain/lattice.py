"""Constrained-chain configuration space and lattice reconstruction.

A configuration on the sheared lattice patch {(i-j, j) : i, j in [-n, n]} is
generated by a single chain of atoms u^i (row j = 0) together with per-column
extension angles theta_i: the site (i-j, j) sits at u^i + j*lam*R(theta_i)*tau.
Equivalently, the column over chain index i is extruded along its own rotated
copy of tau, so the pairwise constraint

    pos(i, j) - pos(i, j+1) = -lam * tau^i

holds exactly by construction.  Columns at |i| >= n (plus two ghost columns
per side) are clamped to affine maps V*x + r prescribed by a BoundaryClamp,
so every interior site keeps a full neighbor stencil.

Admissibility is discrete non-interpenetration: every lattice triangle with
nonnegative reference orientation must keep a nonnegative image determinant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .wells import WellPair, _locked, build_wells

__all__ = [
    "GHOST",
    "LatticeGeometry",
    "BoundaryClamp",
    "ChainState",
    "LatticeField",
    "AdmissibilityViolation",
    "piecewise_chain",
    "affine_chain",
    "reconstruct",
    "check_admissible",
    "save_chain",
    "load_chain",
    "snapshot_config",
]

GHOST = 2

# image determinants below this count as orientation violations
ORIENTATION_TOL = -1e-12


def cross2(p, q):
    """z-component of the cross product of stacked 2-vectors."""
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


@dataclass(frozen=True)
class LatticeGeometry:
    """Half-width n and spacing; rescaled patches use unit spacing."""

    n: int
    rescaled: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"half-width must be at least 2, got {self.n}")

    @property
    def lambda_n(self) -> float:
        return 1.0 if self.rescaled else 1.0 / self.n

    @property
    def atom_lo(self) -> int:
        return -self.n - GHOST

    @property
    def atom_hi(self) -> int:
        return self.n + GHOST

    @property
    def atom_count(self) -> int:
        return 2 * self.n + 2 * GHOST + 1

    def atom_index(self, i):
        """Array offset of chain atom i (ghosts included)."""
        return np.asarray(i) - self.atom_lo

    def atom_ids(self):
        return np.arange(self.atom_lo, self.atom_hi + 1)


@dataclass(frozen=True)
class BoundaryClamp:
    """Affine clamps V*x + r applied to columns i <= -n (left) and i >= n (right)."""

    V_left: np.ndarray
    r_left: np.ndarray
    V_right: np.ndarray
    r_right: np.ndarray

    @classmethod
    def pieces(cls, V_left, r_left, V_right, r_right):
        return cls(V_left=_locked(V_left), r_left=_locked(r_left),
                   V_right=_locked(V_right), r_right=_locked(r_right))

    def positions(self, ids, lam):
        """Clamp positions for chain indices ids; negative side uses the left map."""
        ids = np.asarray(ids)
        x = np.stack([ids * lam, np.zeros_like(ids, dtype=float)], axis=-1)
        left = x @ self.V_left.T + self.r_left
        right = x @ self.V_right.T + self.r_right
        return np.where((ids < 0)[..., None], left, right)


@dataclass(frozen=True, eq=False)
class ChainState:
    """Generating chain: atom positions u (atoms -n-2..n+2) and column angles theta.

    Clamped columns (|i| >= n and ghosts) must hold their BoundaryClamp values
    with theta = 0; construction validates this.
    """

    geometry: LatticeGeometry
    wells: WellPair
    bc: BoundaryClamp
    u: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        count = self.geometry.atom_count
        if self.u.shape != (count, 2):
            raise ValueError(f"u must have shape {(count, 2)}, got {self.u.shape}")
        if self.theta.shape != (count,):
            raise ValueError(f"theta must have shape {(count,)}, got {self.theta.shape}")
        object.__setattr__(self, "u", _locked(self.u))
        object.__setattr__(self, "theta", _locked(self.theta))
        ids = self.geometry.atom_ids()
        clamped = np.abs(ids) >= self.geometry.n
        want = self.bc.positions(ids[clamped], self.lam)
        got = self.u[clamped]
        if not np.allclose(got, want, rtol=0.0, atol=1e-8 * (1.0 + np.abs(want).max())):
            worst = int(np.argmax(np.abs(got - want).max(axis=1)))
            raise ValueError(
                f"clamped atom {ids[clamped][worst]} off its boundary value by "
                f"{np.abs(got - want).max():.3e}")
        if np.abs(self.theta[clamped]).max() > 1e-12:
            raise ValueError("clamped columns must have theta = 0")

    @property
    def n(self) -> int:
        return self.geometry.n

    @property
    def lam(self) -> float:
        return self.geometry.lambda_n

    @property
    def tau_vectors(self) -> np.ndarray:
        """Per-column extension vectors R(theta_i) tau, all of length |tau|."""
        return self.wells.tau_at(self.theta)

    def atoms_at(self, ids):
        """(u, theta) for arbitrary chain indices; out-of-range falls back to the clamp."""
        ids = np.asarray(ids)
        inside = (ids >= self.geometry.atom_lo) & (ids <= self.geometry.atom_hi)
        idx = self.geometry.atom_index(np.where(inside, ids, self.geometry.atom_lo))
        u = np.where(inside[..., None], self.u[idx], self.bc.positions(ids, self.lam))
        theta = np.where(inside, self.theta[idx], 0.0)
        return u, theta

    def with_arrays(self, u=None, theta=None) -> "ChainState":
        return replace(self,
                       u=self.u if u is None else np.asarray(u, dtype=float),
                       theta=self.theta if theta is None else np.asarray(theta, dtype=float))


def piecewise_chain(n, wells, columns, gradients, offset=(0.0, 0.0)):
    """Continuous piecewise-affine chain, clamped to its first and last pieces.

    gradients[k] applies on the columns (columns[k-1], columns[k]], the first
    and last pieces running out to the ghosts.  The first piece carries
    `offset`; each later one the offset that meets the piece before it at
    their shared column c: r[k+1] = r[k] + (V[k] - V[k+1]) [c lam, 0].
    """
    geom = LatticeGeometry(n=n)
    lam = geom.lambda_n
    if len(gradients) != len(columns) + 1:
        raise ValueError(f"{len(columns)} columns need {len(columns) + 1} gradients, "
                         f"got {len(gradients)}")
    if not (all(-n <= c <= n for c in columns)
            and all(lo < hi for lo, hi in zip(columns, columns[1:]))):
        raise ValueError(f"columns must strictly increase inside [-{n}, {n}], got {columns}")
    V = [np.asarray(g, dtype=float) for g in gradients]
    r = [np.asarray(offset, dtype=float)]
    for k, c in enumerate(columns):
        r.append(r[k] + (V[k] - V[k + 1]) @ np.array([c * lam, 0.0]))
    ids = geom.atom_ids()
    x = np.stack([ids * lam, np.zeros_like(ids, dtype=float)], axis=-1)
    piece = np.searchsorted(columns, ids)
    u = np.stack([x @ Vk.T + rk for Vk, rk in zip(V, r)])[piece, np.arange(ids.size)]
    return ChainState(geometry=geom, wells=wells,
                      bc=BoundaryClamp.pieces(V[0], r[0], V[-1], r[-1]),
                      u=u, theta=np.zeros(geom.atom_count))


def affine_chain(n, wells, V, offset=(0.0, 0.0)):
    """Chain sampling the affine map V*x + offset, clamped to the same map."""
    return piecewise_chain(n, wells, [], [V], offset)


@dataclass(frozen=True, eq=False)
class LatticeField:
    """Reconstructed 2D configuration.

    positions[ii, jj]: site with chain index i = ii - n - 2, row j = jj - n - 1.
    gradients[k, l]: cell matrix [h | v] / lam at (i, j) = (k - n, l - n), where
    h and v are the horizontal and vertical forward differences.
    """

    chain: ChainState
    positions: np.ndarray
    gradients: np.ndarray

    @property
    def n(self) -> int:
        return self.chain.n

    @property
    def lam(self) -> float:
        return self.chain.lam

    def pos_index(self, i, j):
        return np.asarray(i) + self.n + GHOST, np.asarray(j) + self.n + 1

    def grad_index(self, i, j):
        return np.asarray(i) + self.n, np.asarray(j) + self.n


def reconstruct(chain: ChainState) -> LatticeField:
    """Extrude the generating chain into the full sheared patch."""
    n, lam = chain.n, chain.lam
    rows = np.arange(-n - 1, n + 2)
    tau_cols = chain.tau_vectors
    positions = chain.u[:, None, :] + lam * rows[None, :, None] * tau_cols[:, None, :]

    # cell gradients on the "+" triangles for i, j in [-n, n]
    lo = GHOST  # array offset of atom -n
    hi = lo + 2 * n + 1
    base = positions[lo:hi, 1:-1]
    gradients = np.empty(base.shape + (2,))
    np.subtract(positions[lo + 1:hi + 1, 1:-1], base, out=gradients[..., 0])
    np.subtract(positions[lo + 1:hi + 1, 2:], base, out=gradients[..., 1])
    gradients /= lam
    return LatticeField(chain=chain, positions=_locked(positions),
                        gradients=_locked(gradients))


@dataclass(frozen=True)
class AdmissibilityViolation:
    i: int
    j: int
    triangle: int
    det: float


def check_admissible(field: LatticeField):
    """Orientation check on every stored lattice cell.

    Each unit cell contributes its four diameter-sqrt(2) corner triangles; a
    violation is an image determinant below -1e-12.  Returns the empty list
    for admissible fields.
    """
    n = field.n
    pos = field.positions
    a = pos[:-2, :-1]          # (c, j)     at storage (ii, jj)
    b = pos[1:-1, :-1]         # (c+1, j)
    c = pos[1:-1, 1:]          # (c, j+1)
    d = pos[2:, 1:]            # (c+1, j+1)
    ab, ac, ad = b - a, c - a, d - a
    db, dcb = d - b, c - b
    dets = np.stack([
        cross2(ab, ad),
        cross2(ad, ac),
        cross2(ab, ac),
        cross2(db, dcb),
    ], axis=-1)

    # storage index ii holds cells with base chain index ii - n - GHOST
    return [AdmissibilityViolation(i=int(ii) - n - GHOST, j=int(jj) - n - 1,
                                   triangle=int(t), det=float(dets[ii, jj, t]))
            for ii, jj, t in np.argwhere(dets < ORIENTATION_TOL)]


def save_chain(chain: ChainState, path, header=None):
    """Write a bit-exact text snapshot (17 significant digits throughout).

    An optional header string is stored inside the head record, so loaders
    keyed on field names are unaffected by it.
    """
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
    lines += ["%d,%.17g,%.17g,%.17g" % row for row in zip(
        chain.geometry.atom_ids().tolist(), *chain.u.T.tolist(), chain.theta.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_chain(path) -> ChainState:
    """Read a `save_chain` snapshot; malformed content raises ValueError naming path."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "# chain-snapshot v1":
        raise ValueError(f"{path}: not a chain snapshot")
    try:
        head = json.loads(lines[1][2:])
        geom = LatticeGeometry(n=int(head["n"]), rescaled=bool(head["rescaled"]))
        wells = build_wells(float(head["a"]))
        bc = BoundaryClamp.pieces(
            np.reshape(head["V_left"], (2, 2)), head["r_left"],
            np.reshape(head["V_right"], (2, 2)), head["r_right"])
        body = lines[3:]
        if len(body) != geom.atom_count:
            raise ValueError(f"expected {geom.atom_count} atom rows, got {len(body)}")
        u = np.empty((geom.atom_count, 2))
        theta = np.empty(geom.atom_count)
        for row, line in zip(range(geom.atom_count), body):
            fields = line.split(",")
            if int(fields[0]) != geom.atom_lo + row:
                raise ValueError(f"atom rows out of order at {fields[0]}")
            u[row] = (float(fields[1]), float(fields[2]))
            theta[row] = float(fields[3])
        bad = ~(np.isfinite(u).all(axis=1) & np.isfinite(theta))
        if bad.any():
            raise ValueError(f"non-finite value in atom row {geom.atom_lo + int(bad.argmax())}")
        return ChainState(geometry=geom, wells=wells, bc=bc, u=u, theta=theta)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad chain snapshot "
                         f"({type(exc).__name__}: {exc})") from exc


def snapshot_config(path):
    """The header string that `save_chain` stored in a snapshot's head record
    as `config`, or None; read from a file that `load_chain` accepts."""
    with open(path) as fh:
        fh.readline()
        return json.loads(fh.readline()[2:]).get("config")
