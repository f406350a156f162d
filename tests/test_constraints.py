"""Level-set constraint primitives, projection, reach and turning bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbms.constraints import (
    _OUTSIDE,
    _PRIMITIVES,
    Ellipsoid,
    Plane,
    ProjectionError,
    Sphere,
    Torus,
    constraint_from_spec,
    estimate_kappa,
)
from fbms.fermi import build_chart
from fbms.monotonicity import density_profile
from fbms.samplers import disk

PRIMITIVES = {
    "sphere": Sphere((0, 0, 0), 1.0),
    "plane": Plane((0, 0, 0), (0, 0, 1)),
    "ellipsoid": Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)),
    "torus": Torus((0, 0, 0), 2.0, 0.5),
}

coord = st.floats(-0.3, 0.3, allow_nan=False)


def test_projection_cases_cover_every_primitive():
    # each primitive projects with its own _project_rows, so each needs a case
    assert {k: type(c) for k, c in PRIMITIVES.items()} == _PRIMITIVES


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
}


@pytest.mark.parametrize("case", REACH_CASES)
def test_sampled_turning_bound_respects_declared_reach(case):
    constraint, center, radius = REACH_CASES[case]
    kappa, _ = estimate_kappa(constraint, center, radius, sample_count=300)
    assert kappa <= (1.0 + 1e-9) / constraint.reach()


def test_batch_projection_drops_only_failed_rows():
    torus = Torus((0, 0, 0), 2.0, 0.5)
    x = np.array([[2.6, 0.0, 0.0], [0.0, 0.0, 0.1], [0.0, 2.4, 0.1]])
    feet, why = torus._project_rows(x)
    assert list(why) == ["", "query point on the torus axis", ""]
    assert np.isnan(feet[1]).all()
    assert np.array_equal(feet[[0, 2]], torus.project(x[[0, 2]]))
    with pytest.raises(ProjectionError, match="torus axis"):
        torus.project(x)


def _torus_points(torus, u, v):
    """Points of the torus at angles u about its axis and v about its core
    circle, and the outer unit normals there."""
    n = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    core = torus.R * np.stack([np.cos(u), np.sin(u), np.zeros_like(u)], axis=1)
    return torus.center + core + torus.r * n, n


def _ellipsoid_points(ellipsoid, u, v):
    """Points a * n(u, v) of the ellipsoid, and the outer unit normals there."""
    n = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    p = ellipsoid.semi_axes * n
    g = p / ellipsoid.semi_axes**2
    return ellipsoid.center + p, g / np.linalg.norm(g, axis=1, keepdims=True)


CLOSED_FORM_CASES = {
    "torus": (Torus((0, 0, 0), 2.0, 0.5), _torus_points),
    "thin-torus": (Torus((0, 0, 0), 1.0, 0.7), _torus_points),
    "ellipsoid": (Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), _ellipsoid_points),
}


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_closed_form_feet_are_nearest_points(case):
    # x = p + s nu(p) with |s| below the reach has the foot p (Federer); the
    # test checks that, and the properties that make a foot the nearest point
    constraint, points = CLOSED_FORM_CASES[case]
    rng = np.random.default_rng(4)
    u, v = rng.uniform(0, 2 * np.pi, size=(2, 300))
    p, nu = points(constraint, u, v)
    s = 0.95 * constraint.reach() * rng.uniform(-1, 1, size=300)
    x = p + s[:, None] * nu
    feet, why = constraint._project_rows(x)
    assert (why == "").all()
    assert np.abs(feet - p).max() <= 1e-12
    norm = np.linalg.norm(feet, axis=1)
    assert (np.abs(constraint.phi(feet)) <= 1e-12 * (1 + norm)).all()
    off = x - feet
    dist = np.linalg.norm(off, axis=1)
    g = constraint.grad(feet)
    sine = np.linalg.norm(np.cross(off, g), axis=1) / (dist * np.linalg.norm(g, axis=1))
    assert (sine[dist > 1e-9] <= 1e-10).all()
    # no seeded point of N is nearer than the foot
    samples, _ = points(constraint, *rng.uniform(0, 2 * np.pi, size=(2, 20000)))
    nearest = np.array([np.linalg.norm(samples - y, axis=1).min() for y in x])
    assert (nearest >= dist - 1e-12).all()
    # a point of N is its own foot, also where the ellipsoid's root is 0
    on_n, why = constraint._project_rows(p)
    assert (why == "").all()
    assert np.abs(on_n - p).max() <= 1e-12


# (constraint, a row with no foot, a row with one)
FAILING_ROWS = {
    # a point of the core circle is equally near its whole tube circle
    "torus-core-circle": (Torus((0, 0, 0), 2.0, 0.5), (0.0, -2.0, 0.0), (2.6, 0.0, 0.0)),
    # the centre and the deep points of the plane across the shortest axis
    # are equally near two or more points of N
    "ellipsoid-centre": (Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), (0.0, 0.0, 0.0),
                         (1.1, 0.0, 0.1)),
    "ellipsoid-deep-plane": (Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), (0.2, 0.1, 0.0),
                             (0.0, 0.0, 0.7)),
    # a foot exists, but farther than the reach
    "torus-past-reach": (Torus((0, 0, 0), 2.0, 0.5), (3.1, 0.0, 0.0), (2.6, 0.0, 0.0)),
    "ellipsoid-past-reach": (Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), (1.8, 0.0, 0.0),
                             (1.1, 0.0, 0.1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", FAILING_ROWS)
def test_rows_without_a_foot_fail_closed(case):
    constraint, bad, good = FAILING_ROWS[case]
    x = np.array([good, bad, good])
    feet, why = constraint._project_rows(x)
    assert list(why) == ["", _OUTSIDE, ""]
    assert np.isnan(feet[1]).all()
    assert np.array_equal(feet[[0, 2]], constraint.project(x[[0, 2]]))


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


# each caller of LevelSetConstraint.check_on, with its base point or point
# on N in the last argument
ON_N_CALLERS = {
    "density_profile": lambda N, p: density_profile(disk(1.0, 4, 12), N, p, [0.1, 0.2]),
    "build_chart": lambda N, p: build_chart(N, p, 0.2),
    # batched: only the second row is off N
    "normal_second_form": lambda N, p: N.normal_second_form(
        np.array([[1.0, 0.0, 0.0], p]), np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])),
}


@pytest.mark.parametrize("p", [(0.5, 0.0, 0.0), (np.inf, 0.0, 0.0)], ids=["inside", "infinite"])
@pytest.mark.parametrize("caller", sorted(ON_N_CALLERS))
def test_callers_reject_a_point_off_the_constraint(caller, p):
    with pytest.raises(ValueError, match="^point is not on the constraint surface$"):
        ON_N_CALLERS[caller](Sphere((0, 0, 0), 1.0), np.array(p))


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
    ]
    for spec in specs:
        c = constraint_from_spec(spec)
        assert type(c).__name__.lower() == spec["type"]
    with pytest.raises(ValueError):
        constraint_from_spec({"type": "paraboloid"})
