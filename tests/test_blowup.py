"""Rescaling covariance and doubling."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fbms.blowup import reflect_double, rescale
from fbms.constraints import Plane, Sphere, Torus
from fbms.mesh import total_area
from fbms.samplers import critical_catenoid, grid_patch, strip_on_plane
from fbms.variation import free_boundary_residual


def test_rescale_map_validation_and_apply():
    mesh = strip_on_plane(4)
    pl = Plane((0, 0, 0), (1, 0, 0))
    for factor in (0.0, -1.0):
        with pytest.raises(ValueError, match="factor must be positive"):
            rescale(mesh, pl, np.zeros(3), factor)
    out, _ = rescale(mesh, pl, np.array([1.0, 0.0, 0.0]), 2.0)
    assert np.allclose(out.vertices, 2.0 * (mesh.vertices - [1.0, 0.0, 0.0]))


def test_rescale_covariance_area_and_constraint():
    mesh = critical_catenoid(24, 24)
    ball = Sphere((0, 0, 0), 1.0)
    out, new_ball = rescale(mesh, ball, np.zeros(3), 3.0)
    assert np.isclose(total_area(out), 9.0 * total_area(mesh))
    assert new_ball.radius == 3.0
    assert np.allclose(new_ball.center, 0.0)
    # the free boundary residual is a scale invariant
    r0, _ = free_boundary_residual(mesh, ball)
    r1, _ = free_boundary_residual(out, new_ball)
    assert abs(r0 - r1) < 1e-12


def test_rescale_plane_and_unsupported_primitive():
    mesh = strip_on_plane(4)
    pl = Plane((0, 0, 0), (1, 0, 0))
    center = np.array([0.0, 0.5, 0.0])
    out, new_pl = rescale(mesh, pl, center, 2.0)
    assert np.allclose(new_pl.normal, [1.0, 0.0, 0.0])
    assert np.allclose(new_pl.point, 2.0 * (pl.point - center))
    idx = np.nonzero(out.constrained)[0]
    assert np.abs(new_pl.phi(out.vertices[idx])).max() < 1e-12
    with pytest.raises(ValueError, match="unsupported"):
        rescale(mesh, Torus((0, 0, 0), 2.0, 0.5), center, 2.0)


def test_reflect_double_strip_doubles_area_and_welds_seam():
    half = strip_on_plane(6)
    plane = (np.zeros(3), np.array([1.0, 0.0, 0.0]))
    doubled = reflect_double(half, plane)
    n_seam = int(half.constrained.sum())
    assert doubled.n_vertices == 2 * half.n_vertices - n_seam
    assert doubled.n_faces == 2 * half.n_faces
    assert np.isclose(total_area(doubled), 2.0 * total_area(half))
    assert not doubled.constrained.any()
    # mirror symmetry: every vertex has its reflection in the doubled mesh
    tree = cKDTree(doubled.vertices)
    mirrored = doubled.vertices * np.array([-1.0, 1.0, 1.0])
    dist, _ = tree.query(mirrored)
    assert dist.max() < 1e-12


def test_reflect_double_rejects_seam_off_plane():
    half = strip_on_plane(4)
    with pytest.raises(ValueError, match="boundary not on plane"):
        reflect_double(half, (np.array([0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    free = grid_patch(4, 4)  # no constrained vertices at all
    with pytest.raises(ValueError, match="boundary not on plane"):
        reflect_double(free, (np.zeros(3), np.array([1.0, 0.0, 0.0])))


def test_reflect_double_rejects_tilted_approach():
    half = strip_on_plane(6)
    ang = 0.2
    c, s = np.cos(ang), np.sin(ang)
    R = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
    tilted = half.with_vertices(half.vertices @ R.T)  # x=0 edge stays fixed
    with pytest.raises(ValueError, match="residual too large to weld"):
        reflect_double(tilted, (np.zeros(3), np.array([1.0, 0.0, 0.0])))

