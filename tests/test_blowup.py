"""Rescaling covariance, doubling, and the curvature survey."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fbms.blowup import (
    RescaleMap,
    SurveyRow,
    curvature_survey,
    reflect_double,
    rescale,
)
from fbms.constraints import Plane, Sphere, Torus
from fbms.mesh import total_area
from fbms.samplers import critical_catenoid, grid_patch, strip_on_plane
from fbms.variation import free_boundary_residual


def test_rescale_map_validation_and_apply():
    with pytest.raises(ValueError):
        RescaleMap(np.zeros(3), 0.0)
    m = RescaleMap(np.array([1.0, 0.0, 0.0]), 2.0)
    assert np.allclose(m.apply(np.array([2.0, 1.0, 0.0])), [2.0, 2.0, 0.0])


def test_rescale_covariance_area_and_constraint():
    mesh = critical_catenoid(24, 24)
    ball = Sphere((0, 0, 0), 1.0)
    mapping = RescaleMap(np.zeros(3), 3.0)
    out, new_ball = rescale(mesh, ball, mapping)
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
    mapping = RescaleMap(np.array([0.0, 0.5, 0.0]), 2.0)
    out, new_pl = rescale(mesh, pl, mapping)
    assert np.allclose(new_pl.normal, [1.0, 0.0, 0.0])
    assert np.allclose(new_pl.point, mapping.apply(pl.point))
    idx = np.nonzero(out.constrained)[0]
    assert np.abs(new_pl.phi(out.vertices[idx])).max() < 1e-12
    with pytest.raises(ValueError, match="unsupported"):
        rescale(mesh, Torus((0, 0, 0), 2.0, 0.5), mapping)


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


def _survey_rows():
    flat = grid_patch(4, 4)
    bumpy = grid_patch(4, 4)
    curv_flat = np.zeros(flat.n_vertices)
    curv_bumpy = np.full(bumpy.n_vertices, 2.0)
    return [
        {"name": "flat", "mesh": flat, "curvature": curv_flat,
         "stable": True, "lambda_min": 0.5},
        {"name": "bumpy", "mesh": bumpy, "curvature": curv_bumpy,
         "stable": True, "lambda_min": 0.1},
        {"name": "saddle", "mesh": bumpy, "curvature": curv_bumpy,
         "stable": False, "lambda_min": -1.0},
    ]


def test_curvature_survey_filters_unstable_rows():
    rows, summary = curvature_survey(
        _survey_rows(), (np.array([0.5, 0.5, 0.0]), 1.0)
    )
    assert [r.scenario for r in rows] == ["flat", "bumpy", "saddle"]
    assert summary["included"] == ["flat", "bumpy"]
    assert summary["excluded"] == ["saddle"]
    # sup over included rows: the bumpy sheet through the ball center
    assert np.isclose(summary["empirical_C1"], 2.0 * 1.0)


def test_curvature_survey_area_bound_excludes():
    rows, summary = curvature_survey(
        _survey_rows(), (np.array([0.5, 0.5, 0.0]), 1.0), area_bound=1e-6
    )
    assert summary["included"] == []
    assert summary["empirical_C1"] == 0.0


def test_survey_row_rejects_negative_sup_norm():
    with pytest.raises(ValueError):
        SurveyRow("x", 1.0, True, 0.0, -0.1)
