"""Second-variation quadratic form and its lowest eigenpair.

Q(f) = integral |grad f|^2 - |A|^2 f^2 over the surface, minus the Robin-type
boundary term (second form of the constraint in the surface-normal direction)
integrated along the constrained boundary. The ambient is flat, so there is
no Ricci term. Stability means Q >= 0 on all scalar fields, certified by the
lowest generalized eigenvalue, which ARPACK finds in shift-invert mode
started from the constant field rather than a random vector. The shifted
operator is factored once per eigensolve, on a symmetric minimum-degree
ordering with diagonal pivots; the shift keeps it diagonally dominant.

The pipeline verifies the mesh as minimal before this stage and hands the
result to the assembly, which verifies only when called without it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import (
    TriangleMesh,
    VertexField,
    cotangent_laplacian,
    second_fundamental_norm,
    vertex_normals,
)
from .variation import verify_minimal

STABILITY_TOL = 1e-8  # stable means lambda_min >= -STABILITY_TOL


@dataclass(frozen=True)
class StabilityForm:
    """Assembled matrices of the quadratic form Q(f) = f^T (K - P - B) f.

    stiffness K carries the Dirichlet energy, potential P the lumped |A|^2
    term, boundary B the lumped constraint second-form term (supported on
    constrained boundary vertices only), mass M the lumped vertex areas.
    """

    stiffness: sp.csr_matrix
    potential: sp.csr_matrix
    boundary: sp.csr_matrix
    mass: sp.csr_matrix

    def __post_init__(self):
        n = self.mass.shape[0]
        for m in (self.stiffness, self.potential, self.boundary, self.mass):
            if m.shape != (n, n):
                raise ValueError("form matrices must share one size")
            if (m != m.T).nnz:
                raise ValueError("form matrices must be symmetric")
        if np.any(self.mass.diagonal() <= 0):
            raise ValueError("mass diagonal must be strictly positive")

    def operator(self) -> sp.csr_matrix:
        return (self.stiffness - self.potential - self.boundary).tocsr()


@dataclass
class StabilityReport:
    lambda_min: float
    eigenfunction: VertexField
    stable: bool
    residual: float

    def to_json_dict(self):
        return {
            "lambda_min": self.lambda_min,
            "stable": bool(self.stable),
            "tol": STABILITY_TOL,
            "residual": self.residual,
            "eigenfunction": [float(v) for v in self.eigenfunction.values],
        }


def _boundary_second_form_values(mesh: TriangleMesh, constraint):
    """Constraint second form in the surface-normal direction, per constrained
    boundary vertex, evaluated at the projected foot point."""
    idx = np.nonzero(mesh.constrained)[0]
    nu = vertex_normals(mesh).values[idx]
    feet = constraint.project(mesh.vertices[idx])
    nhat = constraint.unit_normal(feet)
    # the surface normal is tangent to N only up to the orthogonality
    # residual; project it before evaluating the second form
    v = nu - np.vecdot(nu, nhat)[:, None] * nhat
    vn = np.linalg.norm(v, axis=1)
    ok = vn >= 1e-12
    vals = np.zeros(len(idx))
    vals[ok] = constraint.normal_second_form(feet[ok], v[ok] / vn[ok, None])
    return idx, vals


def assemble_stability_form(mesh: TriangleMesh, constraint, check=None) -> StabilityForm:
    """Lumped finite-element assembly of the second-variation form.

    check is verify_minimal's result for this mesh and constraint; it is
    computed when not given.
    """
    if check is None:
        check = verify_minimal(mesh, constraint)
    if not check["passes"]:
        warnings.warn(
            "mesh does not verify as minimal "
            f"(max|H|={check['max_interior_H']:.3g}, "
            f"ortho={check['free_boundary_residual']:.3g}); "
            "the form is assembled anyway",
            stacklevel=2,
        )
    n = mesh.n_vertices
    stiffness = cotangent_laplacian(mesh)
    areas = mesh.vertex_areas()
    a2, unreliable = second_fundamental_norm(mesh)
    if unreliable:
        warnings.warn(
            f"unreliable |A|^2 at vertices {unreliable}", stacklevel=2
        )
    potential = sp.diags(a2.values * areas, format="csr")
    bvals = np.zeros(n)
    idx, second = _boundary_second_form_values(mesh, constraint)
    if len(idx):
        lengths = mesh.boundary_length_weights()
        bvals[idx] = second * lengths[idx]
    boundary = sp.diags(bvals, format="csr")
    mass = sp.diags(areas, format="csr")
    return StabilityForm(stiffness, potential, boundary, mass)


def quadratic_form_value(form: StabilityForm, f) -> float:
    vals = f.values if isinstance(f, VertexField) else np.asarray(f, dtype=float)
    if vals.shape != (form.mass.shape[0],):
        raise ValueError("field length does not match the form")
    if not np.all(np.isfinite(vals)):
        raise ValueError("field must be finite")
    return float(vals @ (form.operator() @ vals))


def lowest_eigenpair(form: StabilityForm):
    """Minimal eigenvalue of (K - P - B) f = lambda M f.

    One ARPACK shift-invert solve with the shift below a generalized
    Gershgorin bound, started from the constant field: the ground state has
    one sign on a connected surface, so the start is never deficient in it.

    A - sigma M is factored once, on a symmetric minimum-degree ordering of
    its pattern with diagonal pivots. The shift lies a unit below the
    Gershgorin bound, so every row of A - sigma M has a positive diagonal
    that exceeds the sum of its off-diagonal magnitudes by at least its
    mass; a strictly diagonally dominant matrix keeps that property through
    Gaussian elimination in any symmetric order, so no pivot is small and
    no row exchange is needed.

    The eigenfunction is M-normalised with sum(m f) > 0; lambda is its
    Rayleigh quotient and the residual is measured on the returned pair.
    """
    A = form.operator()
    m = form.mass.diagonal()
    # generalized Gershgorin lower bound: row sums scaled by the lumped mass
    absA = abs(A)
    radii = np.asarray(absA.sum(axis=1)).ravel() - np.abs(A.diagonal())
    lower = float(np.min((A.diagonal() - radii) / m))
    sigma = min(lower, 0.0) - 1.0
    lu = spla.splu(
        (A - sigma * form.mass).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    n = A.shape[0]
    _, vecs = spla.eigsh(
        A, k=1, M=form.mass, sigma=sigma, v0=np.ones(n),
        OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=float),
    )
    x = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (m * vecs[:, 0]))
    if m @ x < 0:
        x = -x
    lam = float(x @ (A @ x))
    res = np.linalg.norm(A @ x - lam * (m * x)) / np.linalg.norm(m * x)
    return lam, VertexField(x, "scalar"), float(res)


def is_stable(mesh: TriangleMesh, constraint, check=None) -> StabilityReport:
    form = assemble_stability_form(mesh, constraint, check)
    lam, f, res = lowest_eigenpair(form)
    return StabilityReport(
        lambda_min=lam,
        eigenfunction=f,
        stable=bool(lam >= -STABILITY_TOL),
        residual=res,
    )
