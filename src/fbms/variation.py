"""First variation of area, free boundary residual, and the constrained solver.

The admissible variation class: interior vertices move freely, constrained
boundary vertices slide tangentially along N, remaining boundary vertices are
pinned. solve_minimal is projected gradient descent in that class with Armijo
backtracking; a step is followed by nearest-point re-projection of the
constrained vertices.

The gradient is taken in the fixed Sobolev metric P = M0 + tau K0+ of the
input mesh (Renka & Neuberger, SIAM J. Sci. Comput. 16, 1995), on the
vertices that may move: M0 its lumped vertex areas, K0+ its cotangent
Laplacian with negative weights clipped to 0, and tau its mean vertex area,
which weighs the two terms equally at the mesh scale. An L2 step is bounded
by the finest edge; this one is not, so the iteration count hardly grows
under refinement. P is strictly diagonally dominant, so it is factored once
per solve with diagonal pivots, and only once the first iteration is not
already stationary. Each search starts at the two-point step of Barzilai &
Borwein (IMA J. Numer. Anal. 8, 1988; Raydan, SIAM J. Optim. 7, 1997) in its
BB2 form s.y / (y.P^-1 y) in the same metric, with s the last accepted move
and y the change of the admissible gradient; P^-1 y is the difference of the
last two solves, so an iteration makes one solve. The step is capped only by
the displacement bound. Where s.y <= 0 the search starts at the step whose
predicted decrease repeats the last accepted one (Nocedal & Wright,
Numerical Optimization, section 3.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (
    TriangleMesh,
    _assemble_laplacian,
    area_gradient_raw,
    _conormals,
    mean_curvature_vector,
    total_area,
    validate_mesh,
)

ASPECT_RATIO_LIMIT = 50.0
ARMIJO_C = 1e-4
ORTHO_TOL = 2e-2  # radians; the residual is resolution limited
MAX_DISPLACEMENT_FRAC = 0.2  # of the shortest edge, per step
H_TOL = 5e-2  # verify_minimal's bound on the interior mean curvature
# the ways solve_minimal ends, as its report's `termination` names them
STATIONARY, MAX_ITERATIONS, NO_DESCENT, LINE_SEARCH_FAILED = TERMINATIONS = (
    "stationary", "max_iterations", "zero descent direction",
    "line search failed 30 halvings")


@dataclass
class SolveParams:
    max_iterations: int = 5000

    def __post_init__(self):
        # a bool is an int to Python, but no iteration count
        if type(self.max_iterations) is not int:
            raise TypeError("max_iterations must be an integer")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass
class SolveReport:
    final_mesh: TriangleMesh
    iterations: int
    area_history: list
    grad_history: list
    trials: int  # trial meshes the line searches built
    rejected_trials: int  # of those, failed the aspect-ratio guard or Armijo test
    final_grad_norm: float
    final_ortho_residual: float
    converged: bool
    termination: str
    metric_scale: float  # tau of the metric P = M0 + tau K0+
    metric_factor_nnz: int | None  # nonzeros of P's LU factors; None: never factored

    def summary_dict(self):
        return {
            "iterations": self.iterations,
            "final_area": self.area_history[-1],
            "final_grad_norm": self.final_grad_norm,
            "final_ortho_residual": self.final_ortho_residual,
            "converged": self.converged,
            "termination": self.termination,
            "trials": self.trials,
            "rejected_trials": self.rejected_trials,
            "metric_scale": self.metric_scale,
            "metric_factor_nnz": self.metric_factor_nnz,
            "grad_history": self.grad_history,
            "area_history": self.area_history,
        }


def finite_difference_variation(mesh: TriangleMesh, X, step: float) -> float:
    """Central-difference oracle for the first variation X . area_gradient_raw."""
    if step <= 0:
        raise ValueError("step must be positive")
    vals = np.asarray(X, dtype=float)
    ap = total_area(mesh.with_vertices(mesh.vertices + step * vals))
    am = total_area(mesh.with_vertices(mesh.vertices - step * vals))
    return (ap - am) / (2.0 * step)


def _violations(mesh: TriangleMesh, constraint):
    """|phi| / max(|grad phi|, 1) at the constrained vertices, in vertex order:
    to first order at most their distance to N."""
    x = mesh.vertices[mesh.constrained]
    return np.abs(constraint.phi(x)) / np.maximum(np.linalg.norm(constraint.grad(x), axis=1), 1.0)


def free_boundary_residual(mesh: TriangleMesh, constraint, on_tol=1e-6):
    """Max angle (radians) between the conormal and the constraint normal line.

    Only constrained boundary vertices are checked; they must lie on N.
    """
    idx = np.nonzero(mesh.constrained)[0]
    if len(idx) == 0:
        return 0.0, {}
    off = idx[_violations(mesh, constraint) > on_tol * (1.0 + mesh.diameter())]
    if len(off):
        raise ValueError(f"boundary vertex off constraint: {off.tolist()}")
    # corners where the constrained arc meets a pinned boundary arc have a
    # conormal averaged over both regimes; they carry no orthogonality claim
    sliding = np.nonzero(mesh.topology.sliding)[0]
    eta = _conormals(mesh)[sliding]
    if np.isnan(eta).any():
        raise ValueError("constrained vertex without a boundary conormal")
    c = np.abs(np.vecdot(eta, constraint.unit_normal(mesh.vertices[sliding])))
    angles = np.arccos(np.minimum(1.0, c))
    return float(angles.max(initial=0.0)), dict(zip(sliding.tolist(), angles.tolist()))


def _residual_or_inf(mesh: TriangleMesh, constraint, on_tol=1e-6):
    """free_boundary_residual's angle, or inf where it is undefined: a
    constrained vertex off N or without a boundary conormal."""
    try:
        return free_boundary_residual(mesh, constraint, on_tol)[0]
    except ValueError:
        return np.inf


def area_gradient(mesh: TriangleMesh, constraint) -> np.ndarray:
    """(n, 3) vertex gradient of area in the admissible class.

    Interior: full gradient. Sliding boundary (`Topology.sliding`): projected
    to T N at the projected foot point. Pinned boundary (`Topology.pinned`):
    zero, the corners too, as their gradient mixes both arcs (O(h) spurious).
    """
    g = area_gradient_raw(mesh)
    g[mesh.topology.pinned] = 0.0
    idx, _, n = mesh.sliding_feet(constraint)
    g[idx] -= np.einsum("ij,ij->i", g[idx], n)[:, None] * n
    return g


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


def _metric_factor(mesh: TriangleMesh, tau: float):
    """LU factor of the descent's metric P = M0 + tau K0+ on the vertices
    that may move, with identity rows and columns on the pinned ones
    (`Topology.pinned`): the admissible gradient is 0 there, and so is its
    solve.

    Every row of P has a positive diagonal that exceeds the sum of its
    off-diagonal magnitudes by its vertex area. The Laplacian is assembled
    for this alone and not cached on the mesh.
    """
    areas = np.maximum(mesh.vertex_areas(), 1e-300)
    free = sp.diags((~mesh.topology.pinned).astype(float))
    P = tau * _assemble_laplacian(mesh, clip_negative=True) + sp.diags(areas)
    P = (free @ P @ free + sp.diags(mesh.topology.pinned.astype(float))).tocsc()
    return _diagonal_lu(P)


def _diagonal_lu(A):
    """LU factor of a symmetric, strictly diagonally dominant CSC matrix.
    Dominance survives Gaussian elimination in any symmetric order, so no
    pivot is small: diagonal pivots on a symmetric minimum-degree ordering
    of A's pattern need no row exchange."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def solve_minimal(initial: TriangleMesh, constraint, params: SolveParams | None = None):
    """Constrained area minimization by projected gradient descent."""
    params = params or SolveParams()
    bad = validate_mesh(initial)
    if bad:
        raise ValueError("invalid initial mesh: " + "; ".join(bad))
    grad_tol = 1e-2 / initial.diameter()
    tau = float(initial.vertex_areas().mean())
    metric = None  # factored at the first iteration that is not stationary

    mesh = initial
    area = total_area(mesh)
    min_edge = float(mesh.edge_lengths().min())
    cidx = np.nonzero(mesh.constrained)[0]
    area_history = [area]
    grad_history = []
    predicted = -np.inf  # t * slope of the last accepted step; -inf: start at the cap
    s = g_last = h_last = None  # the last accepted move, the gradient it left, P^-1 of that
    trials = rejected = 0
    termination = MAX_ITERATIONS
    converged = False
    it = 0

    for it in range(1, params.max_iterations + 1):
        g = area_gradient(mesh, constraint)
        areas_v = np.maximum(mesh.vertex_areas(), 1e-300)
        # stationarity on the mean-curvature scale: |grad| over lumped area
        gnorm = float((np.linalg.norm(g, axis=1) / areas_v).max())
        grad_history.append(gnorm)
        # the residual is computed only once the gradient test has passed
        if gnorm <= grad_tol and (ortho := _residual_or_inf(mesh, constraint)) <= ORTHO_TOL:
            converged = True
            termination = STATIONARY
            break
        if metric is None:
            metric = _metric_factor(initial, tau)
        h = metric.solve(g)
        # g is tangent to N at the sliding feet, so this projection keeps
        # the slope at -g.P^-1 g
        d = -h
        idx, _, nrm = mesh.sliding_feet(constraint)
        d[idx] -= np.einsum("ij,ij->i", d[idx], nrm)[:, None] * nrm
        slope = float(np.einsum("ij,ij->", g, d))
        if slope >= 0:
            termination = NO_DESCENT
            break

        # step cap: no vertex moves more than a fraction of the shortest edge
        dmax = float(np.sqrt(np.vecdot(d, d).max()))
        t_cap = MAX_DISPLACEMENT_FRAC * min_edge / max(dmax, 1e-300)

        # Armijo backtracking with halving. The first trial is the BB2 step
        # in the metric P; where s.y <= 0 it predicts the same decrease
        # t * slope as the last accepted step (Nocedal & Wright, eq. 3.60).
        # The constraint projection is part of the trial step, so sufficient
        # decrease is tested on the actual next iterate.
        t = predicted / slope
        if s is not None:
            y = g - g_last
            sy = float(np.einsum("ij,ij->", s, y))
            if sy > 0:
                t = sy / float(np.einsum("ij,ij->", y, h - h_last))
        t = min(t, t_cap)
        accepted = False
        for _ in range(30):
            trials += 1
            vcand = mesh.vertices + t * d
            if len(cidx):
                vcand[cidx] = constraint.project(vcand[cidx])
            cand = mesh.with_vertices(vcand)
            aspect, cand_area, cand_min_edge = _max_aspect_ratio(cand)
            if aspect <= ASPECT_RATIO_LIMIT and cand_area <= area + ARMIJO_C * t * slope:
                accepted = True
                break
            rejected += 1
            t *= 0.5
        if not accepted:
            termination = LINE_SEARCH_FAILED
            break
        predicted = t * slope
        s, g_last, h_last = vcand - mesh.vertices, g, h
        mesh, area, min_edge = cand, cand_area, cand_min_edge
        area_history.append(area)

    if not converged:  # a "stationary" exit has both on the final mesh
        ortho = _residual_or_inf(mesh, constraint)
        g = area_gradient(mesh, constraint)
        areas_v = np.maximum(mesh.vertex_areas(), 1e-300)
    final_gnorm = float((np.linalg.norm(g, axis=1) / areas_v).max())
    return SolveReport(
        final_mesh=mesh,
        iterations=it,
        area_history=area_history,
        grad_history=grad_history,
        trials=trials,
        rejected_trials=rejected,
        final_grad_norm=final_gnorm,
        final_ortho_residual=ortho,
        converged=converged,
        termination=termination,
        metric_scale=tau,
        metric_factor_nnz=None if metric is None else int(metric.nnz),
    )


def verify_minimal(mesh: TriangleMesh, constraint):
    """Certifies free boundary minimality: max interior |H| <= H_TOL and the
    orthogonality residual <= ORTHO_TOL, the solver's own bound."""
    interior = ~mesh.is_boundary_vertex()
    H = mean_curvature_vector(mesh)
    max_h = float(np.linalg.norm(H[interior], axis=1).max()) if interior.any() else 0.0
    max_phi = float(_violations(mesh, constraint).max(initial=0.0))
    ortho = _residual_or_inf(mesh, constraint, on_tol=max(1e-6, 2 * max_phi))
    passes = max_h <= H_TOL and ortho <= ORTHO_TOL
    return {
        "max_interior_H": max_h,
        "free_boundary_residual": ortho,
        "max_constraint_violation": max_phi,
        "h_tol": H_TOL,
        "ortho_tol": ORTHO_TOL,
        "passes": bool(passes),
    }
