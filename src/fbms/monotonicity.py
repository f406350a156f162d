"""Weighted density ratios and the deficit integral for free boundary surfaces.

Theta(r) = exp(Lambda1 r) * mass(B(p, r)) / r^k is nondecreasing in r for a
free boundary minimal surface whose boundary lies on a constraint of reach
R0 (turning bound kappa = 1/R0), provided r < R0/2, with gamma = 2/R0 and
Lambda1 = k(Lambda + 3 gamma). The ambient is flat, so Lambda = 0 and
Lambda1 = 3 k gamma. The deficit integral quantifies the increase;
it vanishes exactly on cones through the base point. Meshes carry k = 2; a
polyline realization with k = 1 and exact segment clipping serves as an
independent oracle for the weighting pipeline.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .constraints import _is_number
from .mesh import TriangleMesh
from .variation import verify_minimal


@dataclass(frozen=True)
class Polyline:
    """Open polygonal curve; the k = 1 analogue of a mesh surface."""

    vertices: np.ndarray  # (n, 3); (n, 2) input lies in z = 0

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] not in (2, 3):
            raise ValueError("polyline needs >= 2 vertices in 2 or 3 dims")
        object.__setattr__(self, "vertices", _in_space(v))


def _in_space(x):
    """Points of the plane or of space, as points of space: a point (x, y)
    of the plane is (x, y, 0)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 2:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)
    return x


@dataclass
class DensityProfile:
    base_point: np.ndarray
    radii: list
    masses: list
    theta: list
    deficits: list  # deficit(r_j, r_{j+1}) for consecutive pairs
    constants: dict
    minimal_verified: bool = True

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["r", "mass", "theta", "deficit_to_next"])
        for j, r in enumerate(self.radii):
            d = repr(float(self.deficits[j])) if j < len(self.deficits) else ""
            w.writerow([repr(float(r)), repr(float(self.masses[j])),
                        repr(float(self.theta[j])), d])
        return buf.getvalue()

    def to_json_dict(self):
        return {
            "base_point": [float(c) for c in np.asarray(self.base_point).ravel()],
            "radii": [float(r) for r in self.radii],
            "masses": [float(m) for m in self.masses],
            "theta": [float(t) for t in self.theta],
            "deficits": [float(d) for d in self.deficits],
            "constants": {k: float(v) for k, v in self.constants.items()},
            "minimal_verified": bool(self.minimal_verified),
        }


class _SortedFaces:
    """The non-degenerate faces of a mesh, and their unit normals, that the
    ball B(p, reach) can reach, sorted by a lower bound on their distance to
    p: the nearest corner's distance less the longest side. Those a ball
    B(p, r) with r <= reach can reach are then a prefix, in the order a
    stable sort of all faces gives them; only the faces below the bound are
    gathered and sorted."""

    def __init__(self, mesh: TriangleMesh, p, reach):
        dist = np.linalg.norm(mesh.vertices - p, axis=1)
        near = (np.min([dist[corner] for corner in mesh.faces.T], axis=0)
                - mesh.edge_lengths().max(axis=0))
        order = np.flatnonzero((near < reach) & (mesh.face_areas() > 0.0))
        order = order[np.argsort(near[order], kind="stable")]
        self.near = near[order]
        a, b, c = mesh.vertices[mesh.faces[order].T]
        self.faces = (a, b, c, mesh.face_normals().T[order])

    @staticmethod
    def within(geometry, p, r):
        """(a, b, c, normals) of the faces that can reach the ball B(p, r)."""
        if isinstance(geometry, TriangleMesh):
            geometry = _SortedFaces(geometry, p, r)
        k = np.searchsorted(geometry.near, r)
        return [x[:k] for x in geometry.faces]


def mass_in_ball(geometry, p, r) -> float:
    """Area (mesh, k=2) or length (polyline, k=1) inside the ball B(p, r).

    Both are clipped exactly: each triangle by the disk its plane cuts from
    the ball, each segment by the ball.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    p = _in_space(p)
    if isinstance(geometry, Polyline):
        v = geometry.vertices
        mass, _ = _kernels.mass_in_ball_segments(v[:-1], v[1:], p, float(r))
    else:
        a, b, c, _ = _SortedFaces.within(geometry, p, r)
        mass, _ = _kernels.mass_in_ball_tris(a, b, c, p, float(r))
    return float(mass)


def deficit_integral(geometry, p, sigma, rho, Lambda1, gamma) -> float:
    """Integral of exp(Lambda1 r) |component of grad r normal to the
    surface|^2 / ((1 + gamma r) r^k) over the annulus sigma < |x - p| < rho,
    exact on mesh faces and polyline segments: each is clipped by the two
    spheres, with a closed form or Gauss-Legendre on the pieces between."""
    if not 0 < sigma < rho:
        raise ValueError("need 0 < sigma < rho")
    p = _in_space(p)
    if isinstance(geometry, Polyline):
        v = geometry.vertices
        return _kernels.deficit_sum_segments(v[:-1], v[1:], p, float(sigma), float(rho),
                                             float(Lambda1), float(gamma))
    a, b, c, n = _SortedFaces.within(geometry, p, rho)
    return float(_kernels.deficit_sum_tris(a, b, c, n, p, float(sigma), float(rho),
                                           float(Lambda1), float(gamma)))


def profile_arguments(constraint, p, radii):
    """density_profile's base point, as a point of space, and its radii, as
    floats. ValueError unless p is on N and the radii are at least 2 finite
    positive numbers (a string or a bool is none), strictly increasing and
    below R0/2 for the reach R0 of N."""
    p = _in_space(p)
    constraint.check_on(p)
    r = np.asarray(radii, dtype=float)
    if (r.ndim != 1 or len(r) < 2 or not np.isfinite(r).all() or r[0] <= 0.0
            or (np.diff(r) <= 0.0).any() or not all(map(_is_number, radii))):
        raise ValueError("radii must be at least 2 finite positive numbers, "
                         "strictly increasing")
    if r[-1] >= constraint.reach() / 2.0:
        raise ValueError("radius exceeds R0/2")
    return p, r.tolist()


def default_radius_grid(r_max, levels=6):
    return [r_max * 2.0 ** (-j) for j in range(levels - 1, -1, -1)]


def density_profile(geometry, constraint, p, radii, check=None) -> DensityProfile:
    """Weighted density ratio Theta over a radius grid at a base point on N,
    with gamma = 2/R0 from the constraint's reach R0.

    A triangle mesh is verified as minimal, unless check, verify_minimal's
    result for this mesh and constraint, is given.
    """
    p, radii = profile_arguments(constraint, p, radii)
    gamma = 2.0 / constraint.reach()
    verified = True
    if isinstance(geometry, TriangleMesh):
        if check is None:
            check = verify_minimal(geometry, constraint)
        verified = bool(check["passes"])
        geometry = _SortedFaces(geometry, p, radii[-1])
    k = 1 if isinstance(geometry, Polyline) else 2
    Lambda1 = k * (3.0 * gamma)
    masses = [mass_in_ball(geometry, p, r) for r in radii]
    theta = [np.exp(Lambda1 * r) * m / r**k for r, m in zip(radii, masses)]
    deficits = [deficit_integral(geometry, p, a, b, Lambda1, gamma)
                for a, b in zip(radii, radii[1:])]
    return DensityProfile(
        base_point=np.asarray(p, dtype=float),
        radii=radii,
        masses=masses,
        theta=theta,
        deficits=deficits,
        constants={"k": k, "Lambda": 0.0, "gamma": gamma, "Lambda1": Lambda1},
        minimal_verified=verified,
    )


SLACK = 0.02  # check_monotonicity's tolerance, relative to Theta(rho)


@dataclass
class MonotonicityReport:
    passed: bool
    worst_margin: float
    worst_pair: tuple | None
    minimal_verified: bool
    notes: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "slack": SLACK,
            "minimal_verified": bool(self.minimal_verified),
            "notes": list(self.notes),
        }


def check_monotonicity(profile: DensityProfile) -> MonotonicityReport:
    """Checks Theta(sigma) <= Theta(rho) - deficit + SLACK * Theta(rho) for
    consecutive radius pairs; reports the worst margin."""
    if len(profile.radii) < 2:
        raise ValueError("profile needs at least two radii")
    worst = np.inf
    worst_pair = None
    for j in range(len(profile.radii) - 1):
        ts, tr = profile.theta[j], profile.theta[j + 1]
        margin = tr - profile.deficits[j] + SLACK * abs(tr) - ts
        if margin < worst:
            worst = margin
            worst_pair = (profile.radii[j], profile.radii[j + 1])
    notes = []
    if not profile.minimal_verified:
        notes.append("input not verified minimal")
    return MonotonicityReport(
        passed=bool(worst >= 0),
        worst_margin=float(worst),
        worst_pair=worst_pair,
        minimal_verified=profile.minimal_verified,
        notes=notes,
    )
