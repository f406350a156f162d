"""First variation, free boundary residual, and the constrained solver."""

import numpy as np
import pytest

from fbms.constraints import Plane, Sphere
from fbms.mesh import TriangleMesh, total_area
from fbms.samplers import (
    catenoid,
    critical_catenoid,
    grid_patch,
    half_disk,
    strip_on_plane,
)
from fbms.variation import (
    SolveParams,
    area_gradient,
    discrete_first_variation,
    finite_difference_variation,
    free_boundary_residual,
    solve_minimal,
    verify_minimal,
)


def test_first_variation_matches_finite_difference():
    m = catenoid(-0.7, 0.7, 10, 16)
    rng = np.random.default_rng(7)
    for _ in range(3):
        X = rng.standard_normal(m.vertices.shape)
        exact = discrete_first_variation(m, X)
        fd = finite_difference_variation(m, X, 1e-6)
        assert abs(exact - fd) < 1e-6 * (1 + abs(fd))


def test_first_variation_is_linear_in_the_field():
    m = grid_patch(5, 5)
    rng = np.random.default_rng(0)
    X = rng.standard_normal(m.vertices.shape)
    Y = rng.standard_normal(m.vertices.shape)
    lhs = discrete_first_variation(m, 2.0 * X - 0.5 * Y)
    rhs = 2.0 * discrete_first_variation(m, X) - 0.5 * discrete_first_variation(m, Y)
    assert abs(lhs - rhs) < 1e-12


def test_finite_difference_rejects_bad_step():
    m = grid_patch(3, 3)
    with pytest.raises(ValueError):
        finite_difference_variation(m, np.zeros(m.vertices.shape), 0.0)


def test_flat_strip_residual_zero():
    m = strip_on_plane(8)
    N = Plane((0, 0, 0), (1, 0, 0))
    res, angles = free_boundary_residual(m, N)
    assert res < 1e-12
    assert all(a < 1e-12 for a in angles.values())


def test_half_disk_in_sphere_residual_zero():
    # a flat disk through the center meets the sphere orthogonally
    m = half_disk(1.0, 10, 20)
    res, _ = free_boundary_residual(m, Sphere((0, 0, 0), 1.0))
    # arccos near 1 amplifies roundoff to sqrt(eps) scale
    assert res < 1e-6


def test_residual_rejects_off_constraint_vertices():
    m = strip_on_plane(6)
    N = Plane((0.3, 0, 0), (1, 0, 0))  # constrained edge sits at x=0, not x=0.3
    with pytest.raises(ValueError):
        free_boundary_residual(m, N)


def test_area_gradient_respects_admissible_class():
    m = half_disk(1.0, 10, 20)
    N = Sphere((0, 0, 0), 1.0)
    g = area_gradient(m, N).values
    boundary = m.is_boundary_vertex()
    # pinned (unconstrained boundary) vertices must not move
    assert np.abs(g[boundary & ~m.constrained]).max() == 0.0
    # constrained vertices move tangentially to N only
    idx = np.nonzero(m.constrained)[0]
    n = N.unit_normal(m.vertices[idx])
    assert np.abs(np.einsum("ij,ij->i", g[idx], n)).max() < 1e-12


def test_flat_strip_is_already_stationary():
    m = strip_on_plane(8)
    N = Plane((0, 0, 0), (1, 0, 0))
    report = solve_minimal(m, N, SolveParams(max_iterations=50))
    assert report.converged
    assert report.termination == "stationary"
    assert report.iterations == 1
    assert np.allclose(report.final_mesh.vertices, m.vertices)


def test_solver_flattens_noisy_pinned_patch():
    base = grid_patch(10, 10)
    rng = np.random.default_rng(2)
    v = base.vertices.copy()
    interior = ~base.is_boundary_vertex()
    v[interior, 2] += 0.05 * rng.standard_normal(interior.sum())
    m = TriangleMesh(v, base.faces, base.constrained)
    report = solve_minimal(m, Plane((0, 0, 0), (0, 0, 1)),
                           SolveParams(max_iterations=3000))
    areas = np.array(report.area_history)
    assert np.all(np.diff(areas) <= 1e-12)
    assert report.converged
    assert abs(total_area(report.final_mesh) - 1.0) < 1e-3


def test_solver_rejects_invalid_mesh():
    m = grid_patch(3, 3)
    faces = m.faces.copy()
    faces[0] = faces[0][::-1]
    bad = TriangleMesh(m.vertices, faces, m.constrained)
    with pytest.raises(ValueError):
        solve_minimal(bad, Plane((0, 0, 0), (0, 0, 1)))


def test_solve_params_validation():
    with pytest.raises(ValueError):
        SolveParams(max_iterations=0)


def test_verify_minimal_accepts_critical_catenoid():
    m = critical_catenoid(48, 48)
    out = verify_minimal(m, Sphere((0, 0, 0), 1.0))
    assert out["passes"]
    assert out["max_interior_H"] < 5e-2
    assert out["free_boundary_residual"] < 2e-2
    assert out["max_constraint_violation"] < 1e-10


def test_verify_minimal_rejects_bent_surface():
    base = grid_patch(8, 8)
    v = base.vertices.copy()
    v[:, 2] = 0.3 * np.sin(np.pi * v[:, 0])
    bent = TriangleMesh(v, base.faces, base.constrained)
    out = verify_minimal(bent, Plane((0, 0, 0), (0, 0, 1)))
    assert not out["passes"]
    assert out["max_interior_H"] > 5e-2
