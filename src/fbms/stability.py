"""Second-variation quadratic form and its lowest eigenpair.

Q(f) = integral |grad f|^2 - |A|^2 f^2 over the surface, minus the Robin-type
boundary term (second form of the constraint in the surface-normal direction)
integrated along the sliding boundary. The ambient is flat, so there is no
Ricci term, and |A|^2 comes from Gauss-Bonnet (`second_fundamental_norm`).
f vanishes on the pinned boundary, as the solver holds it fixed: the form
leaves those rows out (a Dirichlet condition). Stability means Q >= 0 on all
such fields, certified by the lowest generalized eigenvalue, which ARPACK
finds in shift-invert mode started from the constant field rather than a
random vector. The shifted operator is factored once per eigensolve, on a
symmetric minimum-degree ordering with diagonal pivots; the shift keeps it
diagonally dominant.

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
    cotangent_laplacian,
    second_fundamental_norm,
    vertex_normals,
)
from .variation import _diagonal_lu, verify_minimal

STABILITY_TOL = 1e-8  # stable means lambda_min >= -STABILITY_TOL


@dataclass(frozen=True)
class StabilityForm:
    """Assembled matrices of the quadratic form Q(f) = f^T (K - P - B) f.

    stiffness K carries the Dirichlet energy, potential P the lumped |A|^2
    term, boundary B the lumped constraint second-form term (nonzero on
    sliding vertices only), mass M the lumped vertex areas. Row i is mesh
    vertex admissible[i]: the vertices not pinned, as f is 0 on those.
    """

    stiffness: sp.csr_matrix
    potential: sp.csr_matrix
    boundary: sp.csr_matrix
    mass: sp.csr_matrix
    admissible: np.ndarray

    def __post_init__(self):
        n = len(self.admissible)
        for m in (self.stiffness, self.potential, self.boundary, self.mass):
            if m.shape != (n, n):
                raise ValueError("form matrices must have one row per admissible vertex")
            if (m != m.T).nnz:
                raise ValueError("form matrices must be symmetric")
        if np.any(self.mass.diagonal() <= 0):
            raise ValueError("mass diagonal must be strictly positive")

    def operator(self) -> sp.csr_matrix:
        return (self.stiffness - self.potential - self.boundary).tocsr()


@dataclass
class StabilityReport:
    lambda_min: float
    eigenfunction: np.ndarray
    stable: bool
    residual: float

    def to_json_dict(self):
        return {
            "lambda_min": self.lambda_min,
            "stable": bool(self.stable),
            "tol": STABILITY_TOL,
            "residual": self.residual,
            "eigenfunction": [float(v) for v in self.eigenfunction],
        }


def assemble_stability_form(mesh: TriangleMesh, constraint, check=None) -> StabilityForm:
    """Lumped finite-element assembly of the second-variation form on the
    vertices that are not pinned.

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
            "the form is assembled anyway, with |H|^2 taken as 0 on the "
            "boundary in |A|^2 = |H|^2 - 2K",
            stacklevel=2,
        )
    # B: N's second form along the surface normal, at each sliding vertex's foot;
    # the normal is tangent to N only up to the orthogonality residual
    idx, feet, nhat = mesh.sliding_feet(constraint)
    nu = vertex_normals(mesh)[idx]
    v = nu - np.vecdot(nu, nhat)[:, None] * nhat
    vn = np.linalg.norm(v, axis=1)
    ok = vn >= 1e-12
    bvals = np.zeros(mesh.n_vertices)
    bvals[idx[ok]] = constraint.normal_second_form(feet[ok], v[ok] / vn[ok, None])
    bvals *= mesh.boundary_length_weights()
    admissible = np.nonzero(~mesh.topology.pinned)[0]
    areas = mesh.vertex_areas()
    potential = second_fundamental_norm(mesh, constraint) * areas
    L = cotangent_laplacian(mesh)
    return StabilityForm(
        stiffness=L[admissible][:, admissible],
        potential=sp.diags(potential[admissible], format="csr"),
        boundary=sp.diags(bvals[admissible], format="csr"),
        mass=sp.diags(areas[admissible], format="csr"),
        admissible=admissible,
    )


def lowest_eigenpair(form: StabilityForm):
    """Minimal eigenvalue of (K - P - B) f = lambda M f.

    One ARPACK shift-invert solve with the shift below a generalized
    Gershgorin bound, started from the constant field: the ground state has
    one sign on a connected surface, so the start is never deficient in it.

    A - sigma M is factored once with diagonal pivots
    (`variation._diagonal_lu`). The shift lies a unit below the Gershgorin
    bound, so every row of A - sigma M has a positive diagonal that exceeds
    the sum of its off-diagonal magnitudes by at least its mass.

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
    lu = _diagonal_lu((A - sigma * form.mass).tocsc())
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
    return lam, x, float(res)


def is_stable(mesh: TriangleMesh, constraint, check=None) -> StabilityReport:
    form = assemble_stability_form(mesh, constraint, check)
    lam, x, res = lowest_eigenpair(form)
    f = np.zeros(mesh.n_vertices)  # one entry per vertex, 0 on the pinned ones
    f[form.admissible] = x
    return StabilityReport(
        lambda_min=lam,
        eigenfunction=f,
        stable=bool(lam >= -STABILITY_TOL),
        residual=res,
    )
