"""Rescaling and reflection doubling.

The rescale map z -> lambda (z - y) is the zoom used to turn curvature
concentration into exact covariance statements: |A| scales by 1/lambda,
areas by lambda^2, the turning bound kappa by 1/lambda. Doubling a surface
across a flat constraint plane produces a boundary-free minimal surface.
"""

from __future__ import annotations

import numpy as np

from .constraints import Plane, Sphere
from .mesh import TriangleMesh, validate_mesh
from .variation import free_boundary_residual


def rescale(mesh: TriangleMesh, constraint, center, factor):
    """Applies z -> factor (z - center) to the mesh and the constraint primitive."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    y = np.asarray(center, dtype=float)
    out = mesh.with_vertices(factor * (mesh.vertices - y))
    if isinstance(constraint, Sphere):
        new = Sphere(factor * (constraint.center - y), factor * constraint.radius)
    elif isinstance(constraint, Plane):
        new = Plane(factor * (constraint.point - y), constraint.normal)
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

