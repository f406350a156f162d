"""First variation, free boundary residual, and the constrained solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbms.variation
from fbms.constraints import Plane, Sphere
from fbms.mesh import TriangleMesh, area_gradient_raw, cotangent_laplacian, total_area
from fbms.samplers import (
    catenoid,
    critical_catenoid,
    grid_patch,
    half_catenoid,
    half_disk,
    strip_on_plane,
)
from fbms.variation import (
    SolveParams,
    area_gradient,
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
        exact = float(np.einsum("ij,ij->", X, area_gradient_raw(m)))
        fd = finite_difference_variation(m, X, 1e-6)
        assert abs(exact - fd) < 1e-6 * (1 + abs(fd))


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
    g = area_gradient(m, N)
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
    assert report.metric_factor_nnz is None  # the metric is never factored
    assert np.allclose(report.final_mesh.vertices, m.vertices)


def _noisy_pinned_patch():
    base = grid_patch(10, 10)
    rng = np.random.default_rng(2)
    v = base.vertices.copy()
    interior = ~base.is_boundary_vertex()
    v[interior, 2] += 0.05 * rng.standard_normal(interior.sum())
    return TriangleMesh(v, base.faces, base.constrained)


def test_solver_flattens_noisy_pinned_patch():
    m = _noisy_pinned_patch()
    report = solve_minimal(m, Plane((0, 0, 0), (0, 0, 1)),
                           SolveParams(max_iterations=3000))
    areas = np.array(report.area_history)
    assert np.all(np.diff(areas) <= 1e-12)
    assert report.converged
    assert abs(total_area(report.final_mesh) - 1.0) < 1e-3


def test_solver_reads_residual_only_after_gradient_test(monkeypatch):
    calls = []
    residual = fbms.variation._residual_or_inf
    monkeypatch.setattr(fbms.variation, "_residual_or_inf",
                        lambda *a, **k: calls.append(a[0]) or residual(*a, **k))
    # at this resolution the gradient test passes at some iterations while
    # the orthogonality residual stays above ORTHO_TOL
    m = half_catenoid(1.0, 8, 32)
    report = solve_minimal(m, Plane((0, 0, 0), (0, 0, 1)), SolveParams(max_iterations=40))
    assert report.iterations == 40
    passed = sum(g <= 1e-2 / m.diameter() for g in report.grad_history)
    assert 1 <= passed < report.iterations
    assert len(calls) == passed + 1  # plus the final mesh's residual
    assert calls[-1] is report.final_mesh


def test_stationary_exit_reuses_last_gradient_and_residual(monkeypatch):
    calls = []
    for name in ("area_gradient", "_residual_or_inf"):
        real = getattr(fbms.variation, name)
        monkeypatch.setattr(fbms.variation, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    m = _noisy_pinned_patch()
    N = Plane((0, 0, 0), (0, 0, 1))
    report = solve_minimal(m, N, SolveParams(max_iterations=3000))
    assert report.termination == "stationary"
    assert calls.count("area_gradient") == report.iterations
    assert calls.count("_residual_or_inf") == 1
    final = report.final_mesh
    g = fbms.variation.area_gradient(final, N)
    areas_v = np.maximum(final.vertex_areas(), 1e-300)
    assert report.final_grad_norm == float((np.linalg.norm(g, axis=1) / areas_v).max())
    assert report.final_ortho_residual == fbms.variation._residual_or_inf(final, N)


def _obtuse_strip():
    """strip_on_plane(10) with its vertices moved inside their cells: interior
    ones in x, y and z, the sliding edge's along y, so that some pairs of
    angles opposite an edge sum past pi."""
    base = strip_on_plane(10)
    rng = np.random.default_rng(5)
    v = base.vertices.copy()
    interior = ~base.is_boundary_vertex()
    v[interior] += rng.uniform(-0.04, 0.04, (interior.sum(), 3))
    sliding = base.topology.sliding
    v[sliding, 1] += rng.uniform(-0.03, 0.03, sliding.sum())
    return TriangleMesh(v, base.faces, base.constrained)


def test_metric_descends_where_cotangent_weights_are_negative():
    m = _obtuse_strip()
    N = Plane((0, 0, 0), (1, 0, 0))
    report = solve_minimal(m, N, SolveParams(max_iterations=1))
    assert report.termination == "max_iterations"
    assert report.area_history[1] < report.area_history[0]
    assert report.metric_factor_nnz > 0
    assert "_laplacian" not in vars(m)  # the metric's Laplacian is not kept
    L = cotangent_laplacian(m).tocoo()
    assert (L.data[L.row != L.col] > 0).any()  # negative cotangent weights
    g = area_gradient(m, N)
    h = fbms.variation._metric_factor(m, float(m.vertex_areas().mean())).solve(g)
    assert np.all(h[m.topology.pinned] == 0.0)
    assert np.einsum("ij,ij->", g, h) > 0  # d = -h is a descent direction


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
    for count in (2.5, 3.0, True):  # a bool is an int to Python
        with pytest.raises(TypeError):
            SolveParams(max_iterations=count)


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


# the final mesh of the catenoid descent, hashed, from a fresh interpreter
_SOLVE_HASH = """
import hashlib
from fbms.constraints import Sphere
from fbms.scenarios import perturbed_critical_catenoid
from fbms.variation import solve_minimal
mesh = solve_minimal(perturbed_critical_catenoid(64, 64), Sphere((0, 0, 0), 1.0)).final_mesh
print(hashlib.sha256(mesh.vertices.tobytes()).hexdigest())
"""


def _solve_hash(threads):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    run = subprocess.run([sys.executable, "-c", _SOLVE_HASH], capture_output=True,
                         text=True, env=env, check=True)
    return run.stdout.strip()


def test_descent_is_independent_of_the_blas_thread_count():
    # a BLAS reduction splits its sum across threads, so its rounding, and
    # with it every later iterate, would depend on the thread count
    assert _solve_hash(1) == _solve_hash(2)
