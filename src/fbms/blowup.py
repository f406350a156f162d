"""Rescaling, reflection doubling, and the curvature survey.

The rescale map z -> lambda (z - y) is the zoom used to turn curvature
concentration into exact covariance statements: |A| scales by 1/lambda,
areas by lambda^2, the turning bound kappa by 1/lambda. Doubling a surface
across a flat constraint plane produces a boundary-free minimal surface; the
survey reports the scale-invariant statistic sup |A| * dist(., boundary of
the ball) over a scenario family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import Plane, Sphere
from .mesh import TriangleMesh, validate_mesh
from .monotonicity import mass_in_ball
from .variation import free_boundary_residual


@dataclass(frozen=True)
class RescaleMap:
    center: np.ndarray
    factor: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def apply(self, points):
        return self.factor * (np.asarray(points, dtype=float) - self.center)


@dataclass
class SurveyRow:
    scenario: str
    area: float
    stable: bool
    lambda_min: float
    sup_norm: float

    def __post_init__(self):
        if self.sup_norm < 0:
            raise ValueError("sup_norm must be nonnegative")


def rescale(mesh: TriangleMesh, constraint, mapping: RescaleMap):
    """Applies z -> lambda (z - y) to the mesh and the constraint primitive."""
    out = mesh.with_vertices(mapping.apply(mesh.vertices))
    if constraint is None:
        return out, None
    lam, y = mapping.factor, mapping.center
    if isinstance(constraint, Sphere):
        new = Sphere(lam * (constraint.center - y), lam * constraint.radius)
    elif isinstance(constraint, Plane):
        new = Plane(lam * (constraint.point - y), constraint.normal)
    else:
        raise ValueError("unsupported primitive under rescale")
    return out, new


def _reflect_points(points, plane):
    t = plane.phi(points)
    return points - 2.0 * t[:, None] * plane.normal, t


def reflect_double(mesh: TriangleMesh, plane) -> TriangleMesh:
    """Welds the mesh with its mirror image across a flat constraint plane.

    Constrained boundary vertices must lie on the plane (they become the
    seam and are not duplicated); reflected faces get flipped orientation.
    """
    pl = Plane(*plane)
    mirrored, t = _reflect_points(mesh.vertices, pl)
    seam = t[mesh.constrained]
    if len(seam) == 0 or np.abs(seam).max() > 1e-8 * (1.0 + mesh.diameter()):
        raise ValueError("boundary not on plane")
    res, _ = free_boundary_residual(mesh, pl, on_tol=1e-7)
    if res > 0.05:
        raise ValueError("residual too large to weld")

    n = mesh.n_vertices
    free = ~mesh.constrained  # seam vertices are shared with the original
    new_index = np.arange(n)
    new_index[free] = n + np.arange(np.count_nonzero(free))
    vertices = np.vstack([mesh.vertices, mirrored[free]])
    flipped = mesh.faces[:, [0, 2, 1]]
    faces = np.vstack([mesh.faces, new_index[flipped]])
    constrained = np.zeros(len(vertices), dtype=bool)
    out = TriangleMesh(vertices, faces, constrained)
    bad = validate_mesh(out)
    if bad:
        raise ValueError("doubled mesh invalid: " + "; ".join(bad))
    return out


def curvature_survey(rows, ball, area_bound=None):
    """sup |A|(x) * dist(x, sphere(p, R)) per scenario, over vertices in the ball.

    `rows` are dicts with keys {name, mesh, curvature (per-vertex |A|),
    stable, lambda_min}. The summary's empirical constant is the max of
    sup_norm over the stable rows whose clipped area stays within the bound.
    """
    p, R = np.asarray(ball[0], dtype=float), float(ball[1])
    out = []
    for row in rows:
        mesh = row["mesh"]
        vals = np.asarray(row["curvature"], dtype=float)
        d = np.linalg.norm(mesh.vertices - p, axis=1)
        inside = d < R
        sup_norm = float(np.max(vals[inside] * (R - d[inside]))) if inside.any() else 0.0
        area = mass_in_ball(mesh, p, R).mass
        out.append(
            SurveyRow(
                scenario=row["name"],
                area=area,
                stable=bool(row["stable"]),
                lambda_min=float(row.get("lambda_min", np.nan)),
                sup_norm=max(sup_norm, 0.0),
            )
        )
    if area_bound is None:
        area_bound = max((r.area for r in out), default=0.0)
    included = [r for r in out if r.stable and r.area <= area_bound]
    excluded = [r.scenario for r in out if r not in included]
    empirical_c1 = max((r.sup_norm for r in included), default=0.0)
    summary = {
        "empirical_C1": empirical_c1,
        "area_bound": float(area_bound),
        "included": [r.scenario for r in included],
        "excluded": excluded,
    }
    return out, summary

