"""First variation of area, free boundary residual, and the constrained solver.

The admissible variation class: interior vertices move freely, constrained
boundary vertices slide tangentially along N, remaining boundary vertices are
pinned. solve_minimal is projected gradient descent in that class with Armijo
backtracking; a step is followed by nearest-point re-projection of the
constrained vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import (
    TriangleMesh,
    VertexField,
    area_gradient_raw,
    _conormals,
    mean_curvature_vector,
    total_area,
    validate_mesh,
)

ASPECT_RATIO_LIMIT = 50.0
STEP_INIT = 1.0
ARMIJO_C = 1e-4
ORTHO_TOL = 2e-2  # radians; the residual is resolution limited
ORTHO_CHECK_EVERY = 10  # orthogonality residual cadence, in iterations
MAX_DISPLACEMENT_FRAC = 0.2  # of the shortest edge, per step
H_TOL = 5e-2  # verify_minimal's bound on the interior mean curvature


@dataclass
class SolveParams:
    max_iterations: int = 5000

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass
class SolveReport:
    final_mesh: TriangleMesh
    iterations: int
    area_history: list
    grad_history: list
    ortho_history: list
    final_grad_norm: float
    final_ortho_residual: float
    converged: bool
    termination: str

    def summary_dict(self):
        return {
            "iterations": self.iterations,
            "final_area": self.area_history[-1],
            "final_grad_norm": self.final_grad_norm,
            "final_ortho_residual": self.final_ortho_residual,
            "converged": self.converged,
            "termination": self.termination,
        }


def discrete_first_variation(mesh: TriangleMesh, X) -> float:
    """d/dt Area(mesh + tX) at t=0, assembled in lumped form.

    Interior vertices contribute -(X.H) a; boundary vertices contribute the
    conormal boundary term (the discrete position gradient at a boundary
    vertex is exactly that contribution).
    """
    vals = X.values if isinstance(X, VertexField) else np.asarray(X, dtype=float)
    g = area_gradient_raw(mesh)
    return float(np.einsum("ij,ij->", vals, g))


def finite_difference_variation(mesh: TriangleMesh, X, step: float) -> float:
    """Central-difference oracle for discrete_first_variation."""
    if step <= 0:
        raise ValueError("step must be positive")
    vals = X.values if isinstance(X, VertexField) else np.asarray(X, dtype=float)
    ap = total_area(mesh.with_vertices(mesh.vertices + step * vals))
    am = total_area(mesh.with_vertices(mesh.vertices - step * vals))
    return (ap - am) / (2.0 * step)


def free_boundary_residual(mesh: TriangleMesh, constraint, on_tol=1e-6):
    """Max angle (radians) between the conormal and the constraint normal line.

    Only constrained boundary vertices are checked; they must lie on N.
    """
    idx = np.nonzero(mesh.constrained)[0]
    if len(idx) == 0:
        return 0.0, {}
    scale = 1.0 + mesh.diameter()
    phis = np.abs(constraint.phi(mesh.vertices[idx]))
    grad_norm = np.linalg.norm(constraint.grad(mesh.vertices[idx]), axis=1)
    off = idx[phis > on_tol * scale * np.maximum(grad_norm, 1.0)]
    if len(off):
        raise ValueError(f"boundary vertex off constraint: {off.tolist()}")
    # corners where the constrained arc meets a pinned boundary arc have a
    # conormal averaged over both regimes; they carry no orthogonality claim
    n = constraint.unit_normal(mesh.vertices[idx])
    check = ~mesh.topology.corner[idx]
    eta = _conormals(mesh)[idx[check]]
    if np.isnan(eta).any():
        raise ValueError("constrained vertex without a boundary conormal")
    c = np.abs(np.vecdot(eta, n[check]))
    if not len(c):
        return 0.0, {}
    angles = np.arccos(np.minimum(1.0, c))
    return float(angles.max()), dict(zip(idx[check].tolist(), angles.tolist()))


def area_gradient(mesh: TriangleMesh, constraint) -> VertexField:
    """Vertex gradient of area in the admissible class.

    Interior: full gradient. Constrained boundary: tangentially projected to
    T N at the projected foot point. Unconstrained boundary: pinned (zero).
    """
    g = area_gradient_raw(mesh)
    topo = mesh.topology
    # corners joining the constrained arc to a pinned arc stay pinned too:
    # their discrete gradient mixes both regimes and is O(h) spurious
    g[(topo.boundary_mask & ~mesh.constrained) | topo.corner] = 0.0
    idx = np.nonzero(mesh.constrained & ~topo.corner)[0]
    if len(idx):
        feet = constraint.project(mesh.vertices[idx])
        n = constraint.unit_normal(feet)
        g[idx] -= np.einsum("ij,ij->i", g[idx], n)[:, None] * n
    return VertexField(g, "vector")


def _max_aspect_ratio(mesh: TriangleMesh):
    """Evaluates a trial mesh: (max aspect ratio, total area, shortest edge).

    All three come from the mesh's one vertices[faces] gather, which stays
    cached on it: an accepted trial hands its normals and areas on to the
    next gradient. The aspect ratio is the longest edge over the diameter of
    the inscribed circle.
    """
    e = mesh.edge_lengths()
    areas = mesh.face_areas()
    longest = np.maximum(np.maximum(e[0], e[1]), e[2])
    s = 0.5 * ((e[0] + e[1]) + e[2])  # the order of e.sum(axis=1) on (m, 3)
    inradius = np.maximum(areas, 1e-300) / s
    return float((longest / (2.0 * inradius)).max()), float(areas.sum()), float(e.min())


def solve_minimal(initial: TriangleMesh, constraint, params: SolveParams | None = None):
    """Constrained area minimization by projected gradient descent."""
    params = params or SolveParams()
    bad = validate_mesh(initial)
    if bad:
        raise ValueError("invalid initial mesh: " + "; ".join(bad))
    grad_tol = 1e-2 / initial.diameter()

    mesh = initial
    area = total_area(mesh)
    min_edge = float(mesh.edge_lengths().min())
    cidx = np.nonzero(mesh.constrained)[0]
    area_history = [area]
    grad_history = []
    ortho_history = []
    step = STEP_INIT
    termination = "max_iterations"
    converged = False
    it = 0

    ortho = np.inf
    for it in range(1, params.max_iterations + 1):
        gfield = area_gradient(mesh, constraint)
        g = gfield.values
        areas_v = np.maximum(mesh.vertex_areas(), 1e-300)
        d = -g / areas_v[:, None]  # lumped L2 gradient direction
        # stationarity on the mean-curvature scale: |grad| over lumped area
        gnorm = float(np.linalg.norm(d, axis=1).max())
        slope = float(np.einsum("ij,ij->", g, d))
        if it % ORTHO_CHECK_EVERY == 0 or gnorm <= grad_tol:
            try:
                ortho, _ = free_boundary_residual(mesh, constraint)
            except ValueError:
                ortho = np.inf
        grad_history.append(gnorm)
        ortho_history.append(ortho)
        if gnorm <= grad_tol and ortho <= ORTHO_TOL:
            converged = True
            termination = "stationary"
            break
        if slope >= 0:
            termination = "zero descent direction"
            break

        # step cap: no vertex moves more than a fraction of the shortest edge
        t_cap = MAX_DISPLACEMENT_FRAC * min_edge / max(gnorm, 1e-300)

        # Armijo backtracking with halving; growing restart step. The
        # constraint projection is part of the trial step, so sufficient
        # decrease is tested on the actual next iterate.
        accepted = False
        t = min(step * 2.0, t_cap)
        for _ in range(30):
            vcand = mesh.vertices + t * d
            if len(cidx):
                vcand[cidx] = constraint.project(vcand[cidx])
            cand = mesh.with_vertices(vcand)
            aspect, cand_area, cand_min_edge = _max_aspect_ratio(cand)
            if aspect > ASPECT_RATIO_LIMIT:
                t *= 0.5
                continue
            if cand_area <= area + ARMIJO_C * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            termination = "line search failed 30 halvings"
            break
        step = t
        mesh, area, min_edge = cand, cand_area, cand_min_edge
        area_history.append(area)

    try:
        final_ortho, _ = free_boundary_residual(mesh, constraint)
    except ValueError:
        final_ortho = np.inf
    final_g = area_gradient(mesh, constraint).values
    final_gnorm = float(
        (np.linalg.norm(final_g, axis=1) / np.maximum(mesh.vertex_areas(), 1e-300)).max()
    )
    return SolveReport(
        final_mesh=mesh,
        iterations=it,
        area_history=area_history,
        grad_history=grad_history,
        ortho_history=ortho_history,
        final_grad_norm=final_gnorm,
        final_ortho_residual=final_ortho,
        converged=converged,
        termination=termination,
    )


def verify_minimal(mesh: TriangleMesh, constraint):
    """Certifies free boundary minimality: max interior |H| <= H_TOL and the
    orthogonality residual <= ORTHO_TOL, the solver's own bound."""
    interior = ~mesh.is_boundary_vertex()
    H = mean_curvature_vector(mesh).values
    max_h = float(np.linalg.norm(H[interior], axis=1).max()) if interior.any() else 0.0
    idx = np.nonzero(mesh.constrained)[0]
    max_phi = 0.0
    if len(idx):
        gn = np.linalg.norm(constraint.grad(mesh.vertices[idx]), axis=1)
        max_phi = float(
            np.max(np.abs(constraint.phi(mesh.vertices[idx])) / np.maximum(gn, 1.0))
        )
    try:
        ortho, _ = free_boundary_residual(
            mesh, constraint, on_tol=max(1e-6, 2 * max_phi)
        )
    except ValueError:
        ortho = np.inf
    passes = max_h <= H_TOL and ortho <= ORTHO_TOL
    return {
        "max_interior_H": max_h,
        "free_boundary_residual": ortho,
        "max_constraint_violation": max_phi,
        "h_tol": H_TOL,
        "ortho_tol": ORTHO_TOL,
        "passes": bool(passes),
    }
