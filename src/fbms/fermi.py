"""Fermi coordinate charts at constraint points, graph extraction, and the
Neumann residual of the free boundary condition.

A chart at p on N sends (t, x1, x2) to psi(x1, x2) + t * n(psi(x1, x2)),
where psi projects tangent offsets p + x1 e1 + x2 e2 back onto N and n is
the unit normal field. t is the signed distance to N along n. In these
coordinates a surface meeting N orthogonally is locally a graph u over a
half-plane of its tangent space, and orthogonality becomes the Neumann
condition du/dt(0, .) = 0.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .constraints import _length
from .mesh import _any_orthonormal


@dataclass(frozen=True)
class FermiChart:
    base: np.ndarray
    frame: np.ndarray  # rows (n, e1, e2), orthonormal
    radius: float
    constraint: object

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        F = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "frame", F)
        if np.abs(F @ F.T - np.eye(3)).max() > 1e-12:
            raise ValueError("frame must be orthonormal")
        if not 0.0 < self.radius < 0.9 * self.constraint.reach():
            raise ValueError("chart radius must be positive and stay below 0.9 R0")

    def from_fermi(self, coords):
        """(t, x1, x2) -> ambient point."""
        coords = np.asarray(coords, dtype=float)
        c = np.atleast_2d(coords)
        _, e1, e2 = self.frame
        feet, normals = self._feet(self.base + np.outer(c[:, 1], e1) + np.outer(c[:, 2], e2))
        out = feet + c[:, :1] * normals
        return out[0] if coords.ndim == 1 else out

    def to_fermi(self, points):
        """Closed-form inverse of the chart map.

        The foot of x is its nearest point on N and t its offset along the
        oriented normal there. The tangent coordinates are those of the
        point where the normal line through the foot meets the base tangent
        plane, foot + s n(foot); it projects back to the foot while |s|
        stays below the reach R0 of N, and the chart is not injective past it.
        """
        points = np.asarray(points, dtype=float)
        pts = np.atleast_2d(points)
        n, e1, e2 = self.frame
        feet, normals = self._feet(pts)
        along = normals @ n  # at least 0, and above 0 past the check
        rise = (feet - self.base) @ n
        if np.any(np.abs(rise) >= self.constraint.reach() * along):
            raise ValueError("chart radius exceeds injectivity of projection")
        rel = feet - self.base - (rise / along)[:, None] * normals
        out = np.column_stack([np.vecdot(pts - feet, normals), rel @ e1, rel @ e2])
        return out[0] if points.ndim == 1 else out

    def _feet(self, points):
        """Nearest points on N of the rows of `points`, and the unit normals
        there, oriented as the frame's normal at the base (+ where orthogonal
        to it)."""
        feet = self.constraint.project(points)
        normals = self.constraint.unit_normal(feet)
        signs = np.sign(normals @ self.frame[0])
        signs[signs == 0] = 1.0
        return feet, signs[:, None] * normals


def build_chart(constraint, p, r0) -> FermiChart:
    p = np.asarray(p, dtype=float)
    constraint.check_on(p)
    n = constraint.unit_normal(p[None, :])
    e1 = _any_orthonormal(n)
    return FermiChart(base=p, frame=np.vstack([n, e1, np.cross(n, e1)]),
                      radius=_length("r0", r0), constraint=constraint)


@dataclass
class GridSpec:
    h: float  # t spacing
    nt: int = 6  # rows t = 0, h, ..., (nt-1) h
    s_half: float = 0.0  # half-width of the x' range
    ns: int = 11

    @staticmethod
    def default(r0):
        return GridSpec(h=r0 / 20.0, nt=6, s_half=r0 / 4.0, ns=11)


@dataclass
class GraphSample:
    t_values: np.ndarray
    s_values: np.ndarray
    u: np.ndarray  # (nt, ns, sheet_count), NaN where invalid
    valid: np.ndarray  # (nt, ns, sheet_count) boolean
    sheet_count: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "s", "sheet", "u", "valid"])
        for i, t in enumerate(self.t_values):
            for j, s in enumerate(self.s_values):
                for k in range(self.sheet_count):
                    w.writerow([repr(float(t)), repr(float(s)), k,
                                repr(float(self.u[i, j, k])),
                                int(self.valid[i, j, k])])
        return buf.getvalue()


def graph_extract(chart: FermiChart, mesh, tangent_halfspace, grid_spec: GridSpec) -> GraphSample:
    """Samples the surface as a graph over its tangent half-space.

    tangent_halfspace = (w1, w2): unit vectors in chart coordinate space
    spanning the tangent plane of the surface at the base, w1 first (the
    direction pointing into the surface, the graph's t axis). In the
    orthonormal frame (w1, w2, w3 = w1 x w2) a face corner has coordinates
    (t, s, u), u the graph height. The line through (t, s) along w3 meets a
    face at the barycentrics (beta, gamma) of (t, s) in the face's projected
    2x2 edge matrix, at height u0 + beta du1 + gamma du2 (the ray/triangle
    test of Moller & Trumbore, 1997): all grid points at once, in closed form.
    """
    w1 = np.asarray(tangent_halfspace[0], dtype=float)
    w2 = np.asarray(tangent_halfspace[1], dtype=float)
    w1 = w1 / np.linalg.norm(w1)
    w2 = w2 - (w2 @ w1) * w1
    w2 /= np.linalg.norm(w2)
    frame = np.vstack([w1, w2, np.cross(w1, w2)])

    # only the part of the mesh inside the chart ball is invertible
    near = np.linalg.norm(mesh.vertices - chart.base, axis=1) < chart.radius
    faces = mesh.faces[near[mesh.faces].all(axis=1)]
    if len(faces) == 0:
        raise ValueError("no intersection")
    used = np.unique(faces)
    local = np.full((mesh.n_vertices, 3), np.nan)
    local[used] = chart.to_fermi(mesh.vertices[used]) @ frame.T
    tris = local[faces]  # (F, 3, 3): (t, s, u) of each corner
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    # the frame is orthonormal, so this is the determinant of the 3x3
    # system [e1, e2, -w3] up to sign; faces parallel to w3 have none
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    ok = np.abs(det) > 1e-14
    origin, e1, e2, det = tris[ok, 0], e1[ok].T, e2[ok].T, det[ok]

    tv = grid_spec.h * np.arange(grid_spec.nt)
    sv = (np.linspace(-grid_spec.s_half, grid_spec.s_half, grid_spec.ns)
          if grid_spec.s_half > 0 else np.zeros(1))
    t, s = np.meshgrid(tv, sv, indexing="ij")
    dt = t.reshape(-1, 1) - origin[:, 0]  # (grid points, faces)
    ds = s.reshape(-1, 1) - origin[:, 1]
    beta = (dt * e2[1] - ds * e2[0]) / det
    gamma = (e1[0] * ds - e1[1] * dt) / det
    inside = (beta >= -1e-9) & (gamma >= -1e-9) & (beta + gamma <= 1 + 1e-9)
    heights = np.where(inside, origin[:, 2] + beta * e1[2] + gamma * e2[2], np.inf)
    found = np.sort(heights, axis=1)[:, :inside.sum(axis=1).max(initial=0)]
    # faces sharing an edge or a vertex all report its hit: a height starts
    # a new sheet where it exceeds the last kept one
    kept = np.zeros(found.shape, dtype=bool)
    last = np.full(len(found), -np.inf)
    for k, u in enumerate(found.T):
        kept[:, k] = u - last > 1e-9 * (1 + np.abs(u))
        last = np.where(kept[:, k], u, last)
    sheet_count = int(kept.sum(axis=1).max(initial=0))
    if sheet_count == 0:
        raise ValueError("no intersection")
    u = np.full((len(found), sheet_count), np.nan)
    u[np.nonzero(kept)[0], (np.cumsum(kept, axis=1) - 1)[kept]] = found[kept]
    u = u.reshape(len(tv), len(sv), sheet_count)
    return GraphSample(t_values=tv, s_values=sv, u=u, valid=~np.isnan(u),
                       sheet_count=sheet_count)


def neumann_residual(sample: GraphSample) -> float:
    """max |du/dt(0, x')| by one-sided second-order finite difference."""
    ok = sample.valid[:3].all(axis=0)  # the sheets valid on the first 3 rows
    if len(sample.t_values) < 3 or not ok.any():
        raise ValueError("insufficient t-rows")
    h = float(sample.t_values[1] - sample.t_values[0])
    u0, u1, u2 = sample.u[:3, ok]
    return float(np.abs((-3.0 * u0 + 4.0 * u1 - u2) / (2.0 * h)).max())
