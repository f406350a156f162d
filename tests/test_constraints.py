"""Level-set constraint primitives, projection, reach and turning bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbms.constraints import (
    Ellipsoid,
    Graph,
    Plane,
    ProjectionError,
    Sphere,
    Torus,
    constraint_from_spec,
    estimate_kappa,
)

PRIMITIVES = {
    "sphere": Sphere((0, 0, 0), 1.0),
    "plane": Plane((0, 0, 0), (0, 0, 1)),
    "ellipsoid": Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)),
    "torus": Torus((0, 0, 0), 2.0, 0.5),
    "graph": Graph({"cxx": 0.2, "cyy": -0.1, "cxy": 0.05}),
}

coord = st.floats(-0.3, 0.3, allow_nan=False)


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
@settings(max_examples=40, deadline=None)
@given(dx=coord, dy=coord, dz=coord)
def test_projection_idempotent_and_on_surface(name, dx, dy, dz):
    c = PRIMITIVES[name]
    anchor = {
        "sphere": np.array([0.0, 0.0, 1.0]),
        "plane": np.array([0.2, -0.1, 0.0]),
        "ellipsoid": np.array([0.0, 0.0, 0.8]),
        "torus": np.array([2.5, 0.0, 0.0]),
        "graph": np.array([0.0, 0.0, 0.0]),
    }[name]
    x = anchor + np.array([dx, dy, dz])
    p = c.project(x)
    scale = 1.0 + np.linalg.norm(p)
    assert abs(float(c.phi(p[None, :])[0])) < 1e-9 * scale
    p2 = c.project(p)
    assert np.linalg.norm(p2 - p) < 1e-9 * scale
    # the foot point can be no farther than the query's own surface distance
    assert np.linalg.norm(x - p) <= np.linalg.norm(x - anchor) + 1e-9


def test_sphere_projection_is_radial():
    s = Sphere((0, 0, 0), 2.0)
    x = np.array([[0.3, -1.1, 0.4], [3.0, 0.0, 0.0]])
    p = s.project(x)
    expect = 2.0 * x / np.linalg.norm(x, axis=1, keepdims=True)
    assert np.allclose(p, expect)
    assert np.allclose(s.distance(x), np.abs(np.linalg.norm(x, axis=1) - 2.0))


def test_sphere_projection_fails_at_center():
    with pytest.raises(ProjectionError):
        Sphere((0, 0, 0), 1.0).project(np.zeros(3))


@pytest.mark.filterwarnings("error")
def test_torus_projection_fails_on_axis():
    with pytest.raises(ProjectionError):
        Torus((0, 0, 0), 2.0, 0.5).project(np.array([0.0, 0.0, 0.1]))


def test_kappa_plane_is_zero_sphere_is_inverse_radius():
    kappa, _ = estimate_kappa(Plane((0, 0, 0), (0, 0, 1)), (0, 0, 0), 0.5,
                              sample_count=2000)
    assert kappa == 0.0
    kappa, _ = estimate_kappa(Sphere((0, 0, 0), 1.0), (1, 0, 0), 0.5,
                              sample_count=2000)
    assert 0.98 <= kappa <= 1.0
    kappa, _ = estimate_kappa(Sphere((0, 0, 0), 2.0), (2, 0, 0), 0.5,
                              sample_count=2000)
    assert 0.48 <= kappa <= 0.5


def test_kappa_torus_dominated_by_tube_curvature():
    kappa, _ = estimate_kappa(Torus((0, 0, 0), 2.0, 0.5), (2.5, 0, 0), 0.4,
                              sample_count=4000)
    assert 1.5 <= kappa <= 2.0 + 1e-6


def test_kappa_witness_lies_on_surface():
    s = Sphere((0, 0, 0), 1.0)
    _, witness = estimate_kappa(s, (1, 0, 0), 0.5, sample_count=500)
    for w in witness:
        assert abs(float(s.phi(np.array(w)[None, :])[0])) < 1e-8


# (constraint, sample center on it, sample radius); the thin torus's reach is
# set across its hole, where points on opposite sides of the axis face
# each other at distance 2 (R - r)
REACH_CASES = {
    "plane": (Plane((0, 0, 0), (0, 0, 1)), (0, 0, 0), 1.0),
    "sphere": (Sphere((0, 0, 0), 2.0), (2, 0, 0), 1.0),
    "ellipsoid": (Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), (1.2, 0, 0), 0.3),
    "torus": (Torus((0, 0, 0), 2.0, 0.5), (2.5, 0, 0), 0.45),
    "torus-across-hole": (Torus((0, 0, 0), 1.0, 0.7), (0.3, 0, 0), 0.8),
    "graph": (Graph({"cxx": 0.2, "cyy": -0.1, "cxy": 0.05}), (0, 0, 0), 1.0),
    "graph-flat": (Graph({"c0": 0.1, "cx": 0.3}), (0, 0, 0.1), 1.0),
}


@pytest.mark.parametrize("case", REACH_CASES)
def test_sampled_turning_bound_respects_declared_reach(case):
    constraint, center, radius = REACH_CASES[case]
    kappa, _ = estimate_kappa(constraint, center, radius, sample_count=300)
    assert kappa <= (1.0 + 1e-9) / constraint.reach()


def test_kappa_rejects_tiny_sample():
    with pytest.raises(ValueError):
        estimate_kappa(Sphere((0, 0, 0), 1.0), (1, 0, 0), 0.5, sample_count=10)


def test_normal_second_form_sphere_and_plane():
    s = Sphere((0, 0, 0), 1.0)
    assert np.isclose(s.normal_second_form(np.array([1.0, 0, 0]),
                                           np.array([0.0, 1.0, 0])), 1.0)
    pl = Plane((0, 0, 0), (0, 0, 1))
    assert pl.normal_second_form(np.array([0.3, 0.1, 0.0]),
                                 np.array([1.0, 0, 0])) == 0.0


def test_normal_second_form_rejects_bad_input():
    s = Sphere((0, 0, 0), 1.0)
    with pytest.raises(ValueError):
        s.normal_second_form(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
    with pytest.raises(ValueError):
        s.normal_second_form(np.array([1.5, 0, 0]), np.array([0.0, 1.0, 0]))


def test_projectors_decompose_identity():
    e = Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8))
    p = e.project(np.array([0.5, 0.5, 0.5]))
    tau, nu = e.projectors(p)
    assert np.allclose(tau + nu, np.eye(3))
    assert np.allclose(tau @ nu, 0.0, atol=1e-12)
    n = e.unit_normal(p)
    assert np.allclose(tau @ n, 0.0, atol=1e-12)


def test_zeta_vanishes_on_plane_and_at_base():
    pl = Plane((0, 0, 0), (0, 0, 1))
    base = np.array([0.1, 0.2, 0.0])
    pts = np.array([[0.4, -0.3, 0.2], [1.0, 1.0, -0.5]])
    assert np.allclose(pl.zeta(base, pts), 0.0)
    s = Sphere((0, 0, 0), 1.0)
    b = np.array([1.0, 0.0, 0.0])
    assert np.allclose(s.zeta(b, b), 0.0, atol=1e-12)


def test_zeta_is_normal_valued():
    s = Sphere((0, 0, 0), 1.0)
    base = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(1)
    x = base + 0.2 * rng.standard_normal((20, 3))
    z = s.zeta(base, x)
    xi = s.project(x)
    n = s.unit_normal(xi)
    tangential = z - np.einsum("ij,ij->i", z, n)[:, None] * n
    assert np.abs(tangential).max() < 1e-12


def test_constraint_from_spec_roundtrip():
    specs = [
        {"type": "plane", "point": [0, 0, 0], "normal": [1, 0, 0]},
        {"type": "sphere", "center": [0, 0, 0], "radius": 2.0},
        {"type": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 2, 3]},
        {"type": "torus", "center": [0, 0, 0], "major_radius": 2.0,
         "minor_radius": 0.5},
        {"type": "graph", "coefficients": {"cxx": 0.1}},
    ]
    for spec in specs:
        c = constraint_from_spec(spec)
        assert type(c).__name__.lower() == spec["type"]
    with pytest.raises(ValueError):
        constraint_from_spec({"type": "paraboloid"})
