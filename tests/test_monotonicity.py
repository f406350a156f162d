"""Weighted density ratios, ball masses, and the deficit integral."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fbms._kernels import deficit_sum_tris, mass_in_ball_tris
from fbms.constraints import Ellipsoid, Graph, Plane, Sphere, Torus
from fbms.monotonicity import (
    Polyline,
    check_monotonicity,
    default_radius_grid,
    deficit_integral,
    density_profile,
    interior_density,
    mass_in_ball,
)
from fbms.samplers import (
    CRITICAL_CATENOID_T0,
    catenoid_scale_for_unit_sphere,
    critical_catenoid,
    disk,
    halfplane_patch,
)


def test_polyline_segment_mass_exact():
    line = Polyline(np.array([[-2.0, 0.0], [3.0, 0.0]]))
    out = mass_in_ball(line, np.array([0.0, 0.0]), 1.0)
    assert np.isclose(out.mass, 2.0)
    assert out.clipped_triangle_count == 1  # one segment crosses the sphere
    out = mass_in_ball(line, np.array([10.0, 0.0]), 1.0)
    assert out.mass == 0.0


def test_disk_mass_quadratic_in_radius():
    m = disk(1.0, 24, 72)
    p = np.zeros(3)
    for r in (0.2, 0.4):
        got = mass_in_ball(m, p, r).mass
        assert abs(got - np.pi * r * r) < 1e-12 * np.pi * r * r


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.05, 0.45), min_size=2, max_size=6, unique=True))
def test_mass_monotone_in_radius(radii):
    m = disk(1.0, 10, 30)
    p = np.array([0.3, 0.1, 0.0])
    radii = sorted(radii)
    masses = [mass_in_ball(m, p, r).mass for r in radii]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_deficit_vanishes_on_cone_through_base():
    # the flat disk is a cone over its own center, so grad r is tangent
    m = disk(1.0, 16, 48)
    d = deficit_integral(m, np.zeros(3), 0.1, 0.4, 12.0, 2.0)
    assert abs(d) < 1e-12


def test_deficit_positive_off_cone():
    m = disk(1.0, 16, 48)
    p = np.array([0.0, 0.0, 0.3])  # off the disk plane: not a cone point
    d = deficit_integral(m, p, 0.35, 0.6, 12.0, 2.0)
    assert d > 1e-3


def test_deficit_rejects_bad_annulus():
    m = disk(1.0, 4, 12)
    with pytest.raises(ValueError):
        deficit_integral(m, np.zeros(3), 0.4, 0.2, 12.0, 2.0)


def test_interior_density_of_disk_is_pi():
    m = disk(1.0, 24, 72)
    prof = interior_density(m, np.zeros(3), [0.1, 0.2, 0.4])
    assert np.allclose(prof.theta, np.pi, rtol=5e-3)
    assert prof.constants["gamma"] == 0.0


def test_interior_density_nondecreasing_at_catenoid_waist():
    m = critical_catenoid(48, 48)
    waist = m.vertices[int(np.argmin(np.abs(m.vertices[:, 2])))]
    prof = interior_density(m, waist, [0.05, 0.1, 0.2])
    # faceting error allowance on top of the analytic monotonicity
    assert all(b >= a * (1 - 5e-3) for a, b in zip(prof.theta, prof.theta[1:]))
    assert prof.theta[0] > np.pi * 0.98  # minimal surface density >= pi


def test_density_profile_rejects_large_radius():
    m = disk(1.0, 8, 24)
    N = Sphere((0, 0, 0), 1.0)
    with pytest.raises(ValueError, match="R0/2"):
        density_profile(m, N, np.array([1.0, 0.0, 0.0]), [0.1, 0.6])


def test_density_profile_rejects_base_off_constraint():
    m = disk(1.0, 8, 24)
    N = Sphere((0, 0, 0), 1.0)
    with pytest.raises(ValueError, match="not on the constraint"):
        density_profile(m, N, np.array([0.5, 0.0, 0.0]), [0.1, 0.2])


def test_halfplane_profile_constant_and_monotone():
    m = halfplane_patch(48)
    N = Plane((0, 0, 0), (1, 0, 0))
    prof = density_profile(m, N, np.zeros(3), default_radius_grid(0.5, levels=4))
    # half disk mass pi r^2 / 2; gamma = 0 on a plane, so Theta = pi/2
    assert np.allclose(prof.theta, np.pi / 2, rtol=1e-12)
    report = check_monotonicity(prof)
    assert report.passed
    assert report.minimal_verified
    assert report.notes == []


def test_sphere_profile_monotone_with_weight():
    m = disk(1.0, 16, 48)
    N = Sphere((0, 0, 0), 1.0)
    prof = density_profile(m, N, np.array([1.0, 0.0, 0.0]),
                           default_radius_grid(0.4, levels=4))
    assert prof.constants["gamma"] == 2.0
    assert prof.constants["Lambda1"] == 12.0
    report = check_monotonicity(prof)
    assert report.passed


def test_radial_segment_density_exact_exponential():
    # radial segment from the base point: mass(B(0, r)) = r for r <= 1,
    # k = 1 and the unit sphere through the base point has gamma = 2, so
    # Theta(r) = exp(6 r) exactly
    line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    N = Sphere((-1, 0, 0), 1.0)
    radii = [0.1, 0.2, 0.4]
    prof = density_profile(line, N, np.array([0.0, 0.0, 0.0]), radii)
    assert prof.constants["Lambda1"] == 6.0
    for r, t in zip(radii, prof.theta):
        assert abs(t - np.exp(6.0 * r)) < 1e-9
    assert check_monotonicity(prof).passed


# gamma = 2 / R0: the ellipsoid's reach is 0.8^2 / 1.2, the torus's its tube
# radius, and the graph's declared lower bound 0.5 / (2 * 0.2)
@pytest.mark.parametrize("constraint, base, gamma", [
    (Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), (1.2, 0.0, 0.0), 3.75),
    (Torus((0, 0, 0), 2.0, 0.5), (2.5, 0.0, 0.0), 4.0),
    (Graph({"cxx": 0.2}), (0.0, 0.0, 0.0), 1.6),
], ids=["ellipsoid", "torus", "graph"])
def test_density_profile_takes_gamma_from_the_reach(constraint, base, gamma):
    segment = Polyline(np.array([base, np.add(base, (0.0, 0.0, 1.0))]))
    prof = density_profile(segment, constraint, np.array(base), [0.05, 0.1])
    assert prof.constants["gamma"] == pytest.approx(gamma, rel=1e-14)
    assert prof.constants["Lambda"] == 0.0


def test_non_minimal_input_is_flagged():
    m = disk(1.0, 8, 24)
    v = m.vertices.copy()
    r2 = v[:, 0] ** 2 + v[:, 1] ** 2
    v[:, 2] = 0.25 * (1.0 - r2)
    rim = m.is_boundary_vertex()
    v[rim, 2] = 0.0
    bent = m.with_vertices(v)
    N = Sphere((0, 0, 0), 1.0)
    prof = density_profile(bent, N, np.array([1.0, 0.0, 0.0]), [0.1, 0.2])
    assert not prof.minimal_verified
    report = check_monotonicity(prof)
    assert "input not verified minimal" in report.notes


def test_profile_serialization_roundtrip():
    m = disk(1.0, 8, 24)
    prof = interior_density(m, np.zeros(3), [0.1, 0.2])
    payload = json.loads(json.dumps(prof.to_json_dict()))
    assert payload["radii"] == [0.1, 0.2]
    csv_text = prof.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "r,mass,theta,deficit_to_next"
    assert len(lines) == 3


def test_radius_grid_dyadic():
    grid = default_radius_grid(0.8, levels=4)
    assert grid == [0.1, 0.2, 0.4, 0.8]


def _soup(mesh):
    v, f = mesh.vertices, mesh.faces
    return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]


@pytest.mark.parametrize("n", [12, 24, 48])
def test_disk_mass_exact_off_and_on_plane(n):
    # the ball cuts the disk's plane in a disk of radius sqrt(r^2 - h^2)
    a, b, c = _soup(disk(1.0, n, 3 * n))
    for r in (0.1, 0.25, 0.4):
        for h in (0.0, 0.03, 0.5 * r, 0.9 * r):
            p = np.array([0.07, -0.04, h])
            mass, _ = mass_in_ball_tris(a, b, c, p, r)
            want = np.pi * (r * r - h * h)
            assert abs(mass - want) <= 1e-12 * want
    assert mass_in_ball_tris(a, b, c, np.array([0.0, 0.0, 0.5]), 0.4) == (0.0, 0)


def test_triangle_mass_at_vertex_is_sector():
    # a tilted triangle with the base point at each of its vertices in turn:
    # the ball inside the opposite edge cuts a sector alpha r^2 / 2
    rot = np.linalg.qr(np.array([[0.3, -0.8, 0.5], [0.9, 0.2, -0.4],
                                 [0.1, 0.6, 0.7]]))[0]
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [0.3, 0.9, 0.0]])
    tri = (tri + np.array([0.2, -0.7, 0.4])) @ rot.T
    r = 0.2
    for i in range(3):
        u, v, w = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
        e1, e2 = v - u, w - u
        alpha = np.arccos(e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2)))
        mass, crossing = mass_in_ball_tris(tri[0], tri[1], tri[2], u, r)
        assert abs(mass - 0.5 * alpha * r * r) <= 1e-12 * alpha * r * r
        assert crossing == 1


def _distance_to_triangle(p, a, b, c):
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n)
    q = p - ((p - a) @ n) * n
    inside = all(np.cross(y - x, q - x) @ n >= 0
                 for x, y in ((a, b), (b, c), (c, a)))
    if inside:
        return abs((p - a) @ n)
    best = np.inf
    for x, y in ((a, b), (b, c), (c, a)):
        t = np.clip((p - x) @ (y - x) / ((y - x) @ (y - x)), 0.0, 1.0)
        best = min(best, np.linalg.norm(p - x - t * (y - x)))
    return best


def test_crossing_count_matches_brute_force():
    # the sphere cuts a triangle iff its nearest point is inside the ball
    # and its farthest vertex is outside
    m = critical_catenoid(24, 24)
    a, b, c = _soup(m)
    for p in (m.vertices[int(np.argmax(m.vertices[:, 2]))],
              np.array([0.55, 0.12, 0.03])):
        near = np.array([_distance_to_triangle(p, *t) for t in zip(a, b, c)])
        far = np.max([np.linalg.norm(x - p, axis=1) for x in (a, b, c)], axis=0)
        for r in (0.15, 0.3):
            assert min(np.abs(near - r).min(), np.abs(far - r).min()) > 1e-6
            _, crossing = mass_in_ball_tris(a, b, c, p, r)
            assert crossing == int(np.count_nonzero((near < r) & (far > r)))
            assert crossing > 0


def _longest_edge(a, b, c):
    return np.max([np.linalg.norm(y - x, axis=1)
                   for x, y in ((a, b), (b, c), (c, a))], axis=0)


def test_crossing_count_with_vertices_on_the_sphere():
    # dyadic radii about a grid vertex: some vertices lie exactly on the
    # sphere, and a triangle that only touches it from inside is not cut
    a, b, c = _soup(halfplane_patch(96))
    p = np.zeros(3)
    dist = np.stack([np.linalg.norm(x - p, axis=1) for x in (a, b, c)])
    far = dist.max(axis=0)
    # every point of a triangle lies within its longest edge of each vertex,
    # so the others are farther than every radius below
    near = np.full(len(a), np.inf)
    for i in np.flatnonzero(dist.min(axis=0) - _longest_edge(a, b, c) < 0.25):
        near[i] = _distance_to_triangle(p, a[i], b[i], c[i])
    for r, want in ((1 / 16, 17), (1 / 8, 37), (1 / 4, 77)):
        assert np.count_nonzero(far == r) > 0
        brute = int(np.count_nonzero((near < r) & (far > r)))
        assert brute == want
        mass, crossing = mass_in_ball_tris(a, b, c, p, r)
        assert crossing == brute
        assert abs(mass - 0.5 * np.pi * r * r) <= 1e-12 * r * r


def test_mass_of_triangles_wholly_inside_or_outside():
    a, b, c = _soup(critical_catenoid(24, 24))
    p = np.array([0.55, 0.12, 0.03])
    r = 0.3
    dist = np.stack([np.linalg.norm(x - p, axis=1) for x in (a, b, c)])
    inside = dist.max(axis=0) <= r
    outside = dist.min(axis=0) >= 2.0 * r
    assert inside.sum() > 10 and outside.sum() > 10
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    mass, crossing = mass_in_ball_tris(a[inside], b[inside], c[inside], p, r)
    assert abs(mass - area[inside].sum()) <= 1e-13 * area[inside].sum()
    assert crossing == 0
    assert mass_in_ball_tris(a[outside], b[outside], c[outside], p, r) == (0.0, 0)


@pytest.mark.parametrize("n", [16, 32, 48, 64])
@pytest.mark.parametrize("lambda1, gamma", [(0.0, 0.0), (12.0, 2.0)])
def test_deficit_closed_form_on_flat_disk(n, lambda1, gamma):
    # p at height h over the plane z = 0: |n . grad r| = h / r and the area
    # element is 2 pi r dr, so the deficit is
    # 2 pi h^2 int_sigma^rho exp(lambda1 t) / ((1 + gamma t) t^3) dt,
    # which is pi h^2 (1/sigma^2 - 1/rho^2) when lambda1 = gamma = 0
    h, sigma, rho = 0.1, 0.15, 0.6
    integral, _ = quad(lambda t: np.exp(lambda1 * t) / ((1.0 + gamma * t) * t**3),
                       sigma, rho, epsabs=0.0, epsrel=1e-13)
    want = 2.0 * np.pi * h * h * integral
    if lambda1 == 0.0:
        assert abs(want - np.pi * h * h * (sigma**-2 - rho**-2)) <= 1e-12 * want
    got = deficit_integral(disk(1.0, n, 3 * n), np.array([0.0, 0.0, h]),
                           sigma, rho, lambda1, gamma)
    # both spheres cut the mesh, and the polar clip is exact on flat faces
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("pieces", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("lambda1, gamma", [(0.0, 0.0), (12.0, 2.0)])
def test_k1_deficit_of_a_segment_cut_by_both_spheres(pieces, lambda1, gamma, moved):
    # the segment y = h, x in [-1, 1], about p = 0, split into pieces and, when
    # moved, rotated and translated in space: at x the squared component of
    # grad r normal to it is h^2 / r^2, with r^2 = h^2 + x^2
    h, sigma, rho = 0.1, 0.15, 0.6

    def integrand(x):
        r = math.hypot(x, h)
        return math.exp(lambda1 * r) * h * h / ((1.0 + gamma * r) * r**3)

    ends = math.sqrt(sigma**2 - h**2), math.sqrt(rho**2 - h**2)
    want = 2.0 * quad(integrand, *ends, epsabs=0.0, epsrel=1e-13)[0]
    if lambda1 == 0.0:  # the integrand is d(x / r) / dx
        assert abs(want - 2.0 * (ends[1] / rho - ends[0] / sigma)) <= 1e-13 * want
    x = np.linspace(-1.0, 1.0, pieces + 1)
    v, p = np.stack([x, np.full_like(x, h)], axis=1), np.zeros(2)
    if moved:
        shift = np.array([0.4, -1.3, 2.2])
        v = np.hstack([v, np.zeros((len(v), 1))]) @ _rotation().T + shift
        p = shift
    got = deficit_integral(Polyline(v), p, sigma, rho, lambda1, gamma)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("lambda1, gamma", [(0.0, 0.0), (12.0, 2.0)])
def test_k1_deficit_of_a_radial_polyline_is_zero(lambda1, gamma):
    # on a line through p, grad r is tangent to the curve
    line = Polyline(np.array([[0.0, 0.0], [0.3, 0.0], [1.0, 0.0]]))
    assert deficit_integral(line, np.array([-0.1, 0.0]), 0.15, 0.6, lambda1, gamma) == 0.0


def _rotation():
    return np.linalg.qr(np.array([[0.3, -0.8, 0.5], [0.9, 0.2, -0.4],
                                  [0.1, 0.6, 0.7]]))[0]


@pytest.mark.parametrize("lambda1, gamma", [(0.0, 0.0), (12.0, 2.0)])
def test_deficit_of_a_triangle_cut_by_both_spheres(lambda1, gamma):
    # one large triangle in z = 0 around the foot q of p = q + h e_z, cut by
    # both spheres; the reference integrates h^2 G(r) s ds d theta in polar
    # coordinates about q by nested quad, one edge's angular range at a time,
    # s from the inner circle to the edge or the outer circle. The kernel
    # sees the triangle rotated and moved, with either sign of its normal.
    tri = np.array([[-0.3, -0.07, 0.0], [0.5, -0.07, 0.0], [0.05, 0.55, 0.0]])
    q = np.array([0.02, 0.0, 0.0])
    sigma, rho = 0.15, 0.4
    rot, shift = _rotation(), np.array([0.2, -0.7, 0.4])
    for h in (0.1, -0.2):  # inner sphere cuts the plane, or misses it
        s_lo = math.sqrt(max(sigma * sigma - h * h, 0.0))
        s_hi = math.sqrt(rho * rho - h * h)

        def integrand(s):
            r = math.sqrt(s * s + h * h)
            return h * h * math.exp(lambda1 * r) * s / ((1.0 + gamma * r) * r**4)

        def ray(theta, dist, phi):  # from the inner circle to the edge or rho
            edge = min(max(dist / math.cos(theta - phi), s_lo), s_hi)
            return quad(integrand, s_lo, edge, epsabs=0.0, epsrel=1e-13)[0]

        want = 0.0
        for i in range(3):
            x, y = tri[i] - q, tri[(i + 1) % 3] - q
            start, stop = math.atan2(x[1], x[0]), math.atan2(y[1], y[0])
            stop += 2.0 * math.pi if stop < start else 0.0
            e = y - x
            m = np.array([e[1], -e[0], 0.0]) / np.linalg.norm(e)  # outward
            dist, phi = x @ m, math.atan2(m[1], m[0])
            want += quad(ray, start, stop, args=(dist, phi), epsabs=0.0,
                         epsrel=1e-13, limit=200)[0]
        p = rot @ (q + [0.0, 0.0, h]) + shift
        a, b, c = tri @ rot.T + shift
        for n in (rot[:, 2], -rot[:, 2]):
            got = deficit_sum_tris(a, b, c, n, p, sigma, rho, lambda1, gamma)
            assert abs(got - want) <= 1e-12 * want


def test_deficit_of_a_face_through_p_is_zero():
    # grad r is tangent to a plane through p, so its faces add exactly 0:
    # a tilted face with p at a vertex, and a face of z = 0 with p beside it
    rot = _rotation()
    tri = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.0], [0.1, 0.25, 0.0]]) @ rot.T
    n = rot[:, 2]
    assert deficit_sum_tris(*tri, n, tri[0], 0.05, 0.2, 12.0, 2.0) == 0.0
    flat = np.array([[0.1, 0.0, 0.0], [0.3, 0.1, 0.0], [0.1, 0.25, 0.0]])
    p = np.array([0.0, 0.05, 0.0])
    assert deficit_sum_tris(*flat, [0.0, 0.0, 1.0], p, 0.1, 0.3, 0.0, 0.0) == 0.0


def test_deficit_of_faces_nearly_through_p_is_nonnegative():
    # a flat 12-gon moved off the axes, with p at one of its vertices: the
    # faces' planes miss p only by rounding, and none may add less than 0
    rng = np.random.default_rng(0)
    flat = disk(1.0, 4, 12)
    f = flat.faces
    for _ in range(6):
        v = flat.vertices @ np.linalg.qr(rng.standard_normal((3, 3)))[0].T
        v += rng.standard_normal(3)
        a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n, axis=1)[:, None]
        p = v[rng.integers(len(v))]
        for face in zip(a, b, c, n):
            assert 0.0 <= deficit_sum_tris(*face, p, 0.05, 0.5, 0.0, 0.0) < 1e-25


def _catenoid_boundary_point():
    t0 = CRITICAL_CATENOID_T0
    scale = catenoid_scale_for_unit_sphere(t0)
    return np.array([scale * math.cosh(t0), 0.0, scale * t0])


def test_catenoid_deficits_are_nonnegative():
    # the density-sweep profile: the smallest annulus holds only faces whose
    # planes pass within rounding of p, and no face may add less than 0
    prof = density_profile(critical_catenoid(64, 64), Sphere((0, 0, 0), 1.0),
                           _catenoid_boundary_point(), default_radius_grid(0.4))
    assert all(d >= 0.0 for d in prof.deficits)
    assert prof.deficits[0] < 1e-20 < prof.deficits[1]
    assert check_monotonicity(prof).passed


def test_catenoid_deficit_settles_under_refinement():
    # the faceted critical catenoid at its boundary point, lambda1 = 12 and
    # gamma = 2 as on the unit sphere: successive differences shrink as the
    # mesh is refined (no clean order shows, so none is asserted)
    p = _catenoid_boundary_point()
    values = np.array([[deficit_integral(critical_catenoid(n, n), p, s, r, 12.0, 2.0)
                        for s, r in ((0.1, 0.2), (0.2, 0.4))]
                       for n in (16, 32, 64, 128, 256)])
    assert np.all(values > 0.0)
    steps = np.abs(np.diff(values, axis=0))
    assert np.all(steps[1:] < steps[:-1])
    assert np.all(steps[-1] < 1e-2 * values[-1])
