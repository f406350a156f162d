"""Weighted density ratios and the deficit integral for free boundary surfaces.

Theta(r) = exp(Lambda1 r) * mass(B(p, r)) / r^k is nondecreasing in r for a
free boundary minimal surface whose boundary lies on a constraint with
turning bound kappa = 1/R0, provided r < R0/2, with gamma = 2/R0 and
Lambda1 = k(Lambda + 3 gamma). The deficit integral quantifies the increase;
it vanishes exactly on cones through the base point. Meshes carry k = 2; a
polyline realization with k = 1 and exact segment clipping serves as an
independent oracle for the weighting pipeline.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .mesh import TriangleMesh
from .variation import verify_minimal


@dataclass(frozen=True)
class Polyline:
    """Open polygonal curve; the k = 1 analogue of a mesh surface."""

    vertices: np.ndarray  # (n, d) with d in {2, 3}

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] not in (2, 3):
            raise ValueError("polyline needs >= 2 vertices in 2 or 3 dims")
        object.__setattr__(self, "vertices", v)

    def total_length(self):
        return float(np.linalg.norm(np.diff(self.vertices, axis=0), axis=1).sum())


@dataclass
class BallMass:
    radius: float
    mass: float
    clipped_triangle_count: int


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

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True)


class _SortedFaces:
    """A mesh's non-degenerate faces and unit normals, sorted by a lower bound
    on their distance to p, so those a ball about p can reach are a prefix."""

    def __init__(self, mesh: TriangleMesh, p):
        v, f = mesh.vertices, mesh.faces
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        n = np.cross(b - a, c - a)
        norms = np.linalg.norm(n, axis=1)
        near = (_kernels._vertex_distances(a, b, c, p).min(axis=0)
                - _kernels._longest_edge(a, b, c))
        order = np.flatnonzero(norms > 1e-300)
        order = order[np.argsort(near[order], kind="stable")]
        self.near = near[order]
        self.faces = (a[order], b[order], c[order], n[order] / norms[order, None])

    @staticmethod
    def within(geometry, p, r):
        """(a, b, c, normals) of the faces that can reach the ball B(p, r)."""
        if isinstance(geometry, TriangleMesh):
            geometry = _SortedFaces(geometry, p)
        k = np.searchsorted(geometry.near, r)
        return [x[:k] for x in geometry.faces]


def _segment_length_in_ball(a, b, p, r):
    """Exact length of segment [a, b] inside the open ball B(p, r)."""
    d = b - a
    L = np.linalg.norm(d)
    if L < 1e-300:
        return 0.0
    u = d / L
    w = a - p
    # |w + t u| = r, t in [0, L]
    bq = float(w @ u)
    cq = float(w @ w) - r * r
    disc = bq * bq - cq
    if disc <= 0:
        return 0.0
    s = np.sqrt(disc)
    t0 = max(0.0, -bq - s)
    t1 = min(L, -bq + s)
    return max(0.0, t1 - t0)


def mass_in_ball(geometry, p, r) -> BallMass:
    """Area (mesh, k=2) or length (polyline, k=1) inside the ball B(p, r).

    Both are clipped exactly: each triangle by the disk its plane cuts from
    the ball, each segment by the ball. The count is of the triangles or
    segments the sphere cuts.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    p = np.asarray(p, dtype=float)
    if isinstance(geometry, Polyline):
        v = geometry.vertices
        if v.shape[1] == 2:
            v = np.hstack([v, np.zeros((len(v), 1))])
        q = p
        if q.shape[0] == 2:
            q = np.array([p[0], p[1], 0.0])
        total = 0.0
        crossing = 0
        for a, b in zip(v[:-1], v[1:]):
            ell = _segment_length_in_ball(a, b, q, r)
            full = np.linalg.norm(b - a)
            total += ell
            if 0.0 < ell < full - 1e-15 * full:
                crossing += 1
        return BallMass(radius=float(r), mass=total, clipped_triangle_count=crossing)
    a, b, c, _ = _SortedFaces.within(geometry, p, r)
    mass, crossing = _kernels.mass_in_ball_tris(a, b, c, p, float(r))
    return BallMass(radius=float(r), mass=float(mass), clipped_triangle_count=int(crossing))


def deficit_integral(geometry, p, sigma, rho, Lambda1, gamma) -> float:
    """Integral of exp(Lambda1 r) |component of grad r normal to the
    surface|^2 / ((1 + gamma r) r^k) over the annulus sigma < |x - p| < rho,
    exact on mesh faces and polyline segments: each is clipped by the two
    spheres, with a closed form or Gauss-Legendre on the pieces between."""
    if not 0 < sigma < rho:
        raise ValueError("need 0 < sigma < rho")
    p = np.asarray(p, dtype=float)
    if isinstance(geometry, Polyline):
        return _deficit_polyline(geometry, p, sigma, rho, Lambda1, gamma)
    a, b, c, n = _SortedFaces.within(geometry, p, rho)
    return float(_kernels.deficit_sum_tris(a, b, c, n, p, float(sigma), float(rho),
                                           float(Lambda1), float(gamma)))


def _deficit_polyline(poly, p, sigma, rho, Lambda1, gamma):
    v = poly.vertices
    if v.shape[1] == 2:
        v = np.hstack([v, np.zeros((len(v), 1))])
        if p.shape[0] == 2:
            p = np.array([p[0], p[1], 0.0])
    return _kernels.deficit_sum_segments(v[:-1], v[1:], p, float(sigma), float(rho),
                                         float(Lambda1), float(gamma))


def _dimension_k(geometry):
    return 1 if isinstance(geometry, Polyline) else 2


def _profile(geometry, p, radii, gamma, Lambda, with_deficits=True,
             minimal_verified=True):
    k = _dimension_k(geometry)
    Lambda1 = k * (Lambda + 3.0 * gamma)
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if isinstance(geometry, TriangleMesh):
        geometry = _SortedFaces(geometry, p)
    masses = [mass_in_ball(geometry, p, r).mass for r in radii]
    theta = [np.exp(Lambda1 * r) * m / r**k for r, m in zip(radii, masses)]
    deficits = []
    if with_deficits:
        for a, b in zip(radii, radii[1:]):
            deficits.append(deficit_integral(geometry, p, a, b, Lambda1, gamma))
    return DensityProfile(
        base_point=np.asarray(p, dtype=float),
        radii=radii,
        masses=masses,
        theta=theta,
        deficits=deficits,
        constants={"k": k, "Lambda": Lambda, "gamma": gamma, "Lambda1": Lambda1},
        minimal_verified=minimal_verified,
    )


def default_radius_grid(r_max, levels=6):
    return [r_max * 2.0 ** (-j) for j in range(levels - 1, -1, -1)]


def density_profile(geometry, constraint, p, radii, Lambda=0.0,
                    kappa=None) -> DensityProfile:
    """Weighted density ratio Theta over a radius grid at a base point on N."""
    p = np.asarray(p, dtype=float)
    if constraint is not None:
        pp = p if p.shape[0] == 3 else np.array([p[0], p[1], 0.0])
        scale = 1.0 + float(np.linalg.norm(pp))
        if abs(float(constraint.phi(pp[None, :])[0])) > 1e-10 * scale:
            raise ValueError("base point is not on the constraint surface")
    if kappa is None:
        if constraint is None or constraint.analytic_kappa is None:
            raise ValueError("no analytic turning bound; pass kappa explicitly")
        kappa = constraint.analytic_kappa
    R0 = np.inf if kappa == 0 else 1.0 / kappa
    if max(radii) >= R0 / 2.0:
        raise ValueError("radius exceeds R0/2")
    gamma = 2.0 / R0 if np.isfinite(R0) else 0.0
    verified = True
    if isinstance(geometry, TriangleMesh) and constraint is not None:
        verified = bool(verify_minimal(geometry, constraint)["passes"])
    return _profile(geometry, p, radii, gamma, Lambda, minimal_verified=verified)


def interior_density(geometry, p, radii) -> DensityProfile:
    """Classical density ratio mass / r^k at an interior point (gamma = 0)."""
    p = np.asarray(p, dtype=float)
    return _profile(geometry, p, radii, gamma=0.0, Lambda=0.0, with_deficits=False)


@dataclass
class MonotonicityReport:
    passed: bool
    worst_margin: float
    worst_pair: tuple | None
    slack: float
    minimal_verified: bool
    notes: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "slack": float(self.slack),
            "minimal_verified": bool(self.minimal_verified),
            "notes": list(self.notes),
        }


def check_monotonicity(profile: DensityProfile, slack: float = 0.02) -> MonotonicityReport:
    """Checks Theta(sigma) <= Theta(rho) - deficit + slack * Theta(rho) for
    consecutive radius pairs; reports the worst margin."""
    if len(profile.radii) < 2:
        raise ValueError("profile needs at least two radii")
    worst = np.inf
    worst_pair = None
    for j in range(len(profile.radii) - 1):
        ts, tr = profile.theta[j], profile.theta[j + 1]
        d = profile.deficits[j] if j < len(profile.deficits) else 0.0
        margin = tr - d + slack * abs(tr) - ts
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
        slack=slack,
        minimal_verified=profile.minimal_verified,
        notes=notes,
    )
