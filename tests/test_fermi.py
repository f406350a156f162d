"""Fermi charts, graph extraction over the tangent half-space, and the
Neumann residual of the orthogonality condition."""

import warnings

import numpy as np
import pytest

from fbms.constraints import Ellipsoid, Plane, Sphere, Torus
from fbms.fermi import (
    FermiChart,
    GraphSample,
    GridSpec,
    build_chart,
    graph_extract,
    neumann_residual,
)
from fbms.mesh import TriangleMesh, vertex_normals
from fbms.samplers import (
    CRITICAL_CATENOID_T0,
    catenoid_scale_for_unit_sphere,
    critical_catenoid,
    disk,
    grid_patch,
)

BALL = Sphere((0, 0, 0), 1.0)
P = np.array([1.0, 0.0, 0.0])


def test_build_chart_frame_orthonormal_and_based():
    chart = build_chart(BALL, P, 0.3)
    F = chart.frame
    assert np.abs(F @ F.T - np.eye(3)).max() < 1e-12
    assert np.allclose(chart.from_fermi(np.zeros(3)), P)
    assert np.allclose(F[0], [1.0, 0.0, 0.0])  # sphere normal at p


def test_build_chart_rejects_off_surface_base():
    with pytest.raises(ValueError, match="not on the constraint"):
        build_chart(BALL, np.array([0.5, 0.0, 0.0]), 0.2)


def test_chart_radius_capped_by_turning_radius():
    with pytest.raises(ValueError, match="0.9 R0"):
        build_chart(BALL, P, 0.95)
    # every primitive declares its reach R0: 0.5 for this torus
    torus, base, r0 = Torus((0, 0, 0), 2.0, 0.5), np.array([2.5, 0.0, 0.0]), 0.45
    build_chart(torus, base, 0.99 * r0)
    with pytest.raises(ValueError, match="0.9 R0"):
        build_chart(torus, base, r0)


def test_frame_must_be_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        FermiChart(base=P, frame=np.eye(3) * 1.1, radius=0.2, constraint=BALL)


def test_t_coordinate_is_signed_distance_on_sphere():
    chart = build_chart(BALL, P, 0.4)
    rng = np.random.default_rng(0)
    coords = rng.uniform(-0.2, 0.2, size=(30, 3))
    pts = chart.from_fermi(coords)
    # outward normal: |x| = 1 + t
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0 + coords[:, 0],
                       atol=1e-9)


def test_chart_roundtrip_sphere_and_plane():
    for constraint, base in ((BALL, P), (Plane((0, 0, 0), (1, 0, 0)),
                                         np.zeros(3))):
        chart = build_chart(constraint, base, 0.4)
        rng = np.random.default_rng(1)
        coords = rng.uniform(-0.15, 0.15, size=(25, 3))
        back = chart.to_fermi(chart.from_fermi(coords))
        assert np.abs(back - coords).max() <= 1e-14


@pytest.mark.parametrize("base", [(0.0, 0.0, 0.8), (1.2, 0.0, 0.0)],
                         ids=["flat-end", "sharp-end"])
def test_chart_roundtrip_ellipsoid(base):
    chart = build_chart(Ellipsoid((0, 0, 0), (1.2, 1.0, 0.8)), np.array(base), 0.4)
    coords = np.random.default_rng(1).uniform(-0.15, 0.15, size=(200, 3))
    back = chart.to_fermi(chart.from_fermi(coords))
    # the ellipsoid's projection solves for one scalar root by halving its
    # bracket, and both directions of the round trip project once
    assert np.abs(back - coords).max() <= 1e-12


def test_to_fermi_rejects_points_past_the_reach():
    chart = build_chart(BALL, P, 0.4)
    # the normal line through the foot of this point meets the base
    # tangent plane x = 1 at distance 2.2 from the foot, past the reach 1
    with pytest.raises(ValueError, match="injectivity"):
        chart.to_fermi(np.array([[0.9, 0.0, 0.0], [-0.5, 0.3, 0.0]]))
    # on the great circle orthogonal to the base the normal line is parallel
    # to the tangent plane and meets it nowhere
    with pytest.raises(ValueError, match="injectivity"):
        chart.to_fermi(np.array([0.0, 0.9, 0.0]))


def test_plane_chart_is_affine():
    pl = Plane((0, 0, 0), (1, 0, 0))
    chart = build_chart(pl, np.zeros(3), 1.0)
    n, e1, e2 = chart.frame
    coords = np.array([[0.2, -0.1, 0.3], [0.0, 0.5, -0.4]])
    pts = chart.from_fermi(coords)
    expect = coords[:, 0:1] * n + coords[:, 1:2] * e1 + coords[:, 2:3] * e2
    assert np.allclose(pts, expect)


def test_grid_spec_default():
    spec = GridSpec.default(0.4)
    assert spec.h == 0.02
    assert spec.nt == 6
    assert spec.s_half == 0.1
    assert spec.ns == 11


def _two_sheets_mesh():
    """Two parallel half-planes x >= 0 at heights z = 0 and z = 0.1."""
    lower = grid_patch(6, 6, x_range=(0.0, 0.6), y_range=(-0.3, 0.3))
    v_up = lower.vertices + np.array([0.0, 0.0, 0.1])
    verts = np.vstack([lower.vertices, v_up])
    faces = np.vstack([lower.faces, lower.faces + lower.n_vertices])
    return TriangleMesh(verts, faces)


def test_two_parallel_sheets_are_separated():
    pl = Plane((0, 0, 0), (1, 0, 0))
    chart = build_chart(pl, np.zeros(3), 0.8)
    mesh = _two_sheets_mesh()
    n, e1, e2 = chart.frame
    # the surfaces' inward direction is the chart t axis; the second leg is
    # the boundary tangent (ambient y) expressed in chart coordinates
    ey = np.array([0.0, 1.0, 0.0])
    w1 = np.array([1.0, 0.0, 0.0])
    w2 = np.array([0.0, ey @ e1, ey @ e2])
    sample = graph_extract(chart, mesh, (w1, w2),
                           GridSpec(h=0.05, nt=4, s_half=0.2, ns=5))
    assert sample.sheet_count == 2
    heights = np.sort(np.abs(sample.u[sample.valid].reshape(-1)))
    assert heights.min() < 1e-9
    assert abs(heights.max() - 0.1) < 1e-9
    assert neumann_residual(sample) < 1e-9


def test_flat_disk_in_ball_has_zero_neumann_residual():
    chart = build_chart(BALL, P, 0.4)
    mesh = disk(1.0, 16, 48)
    n, e1, e2 = chart.frame
    bt = np.array([0.0, 1.0, 0.0])  # boundary tangent at p
    w1 = np.array([-1.0, 0.0, 0.0])  # into the surface along -t
    w2 = np.array([0.0, bt @ e1, bt @ e2])
    sample = graph_extract(chart, mesh, (w1, w2), GridSpec.default(0.4))
    assert sample.sheet_count == 1
    assert np.nanmax(np.abs(sample.u)) < 1e-8
    assert neumann_residual(sample) < 1e-8


def test_graph_extract_no_intersection():
    chart = build_chart(BALL, np.array([-1.0, 0.0, 0.0]), 0.2)
    mesh = grid_patch(4, 4, x_range=(2.0, 3.0))
    with pytest.raises(ValueError, match="no intersection"):
        graph_extract(chart, mesh, (np.array([1.0, 0.0, 0.0]),
                                    np.array([0.0, 1.0, 0.0])),
                      GridSpec(h=0.02, nt=4, s_half=0.05, ns=3))


def test_neumann_residual_needs_three_rows():
    pl = Plane((0, 0, 0), (1, 0, 0))
    chart = build_chart(pl, np.zeros(3), 0.8)
    mesh = _two_sheets_mesh()
    n, e1, e2 = chart.frame
    ey = np.array([0.0, 1.0, 0.0])
    w2 = np.array([0.0, ey @ e1, ey @ e2])
    sample = graph_extract(chart, mesh, (np.array([1.0, 0.0, 0.0]), w2),
                           GridSpec(h=0.05, nt=2, s_half=0.2, ns=3))
    with pytest.raises(ValueError, match="insufficient t-rows"):
        neumann_residual(sample)


def test_graph_csv_has_row_per_node_and_sheet():
    pl = Plane((0, 0, 0), (1, 0, 0))
    chart = build_chart(pl, np.zeros(3), 0.8)
    mesh = _two_sheets_mesh()
    n, e1, e2 = chart.frame
    ey = np.array([0.0, 1.0, 0.0])
    w2 = np.array([0.0, ey @ e1, ey @ e2])
    sample = graph_extract(chart, mesh, (np.array([1.0, 0.0, 0.0]), w2),
                           GridSpec(h=0.05, nt=3, s_half=0.2, ns=5))
    lines = sample.to_csv().strip().split("\n")
    assert lines[0] == "t,s,sheet,u,valid"
    assert len(lines) == 1 + 3 * 5 * sample.sheet_count


def _graph_extract_per_point(chart, mesh, w1, w2, grid_spec):
    """Reference graph_extract: every face's system is built, tested and
    solved afresh at each grid point."""
    w1 = w1 / np.linalg.norm(w1)
    w2 = w2 - (w2 @ w1) * w1
    w2 /= np.linalg.norm(w2)
    w3 = np.cross(w1, w2)
    near = np.linalg.norm(mesh.vertices - chart.base, axis=1) < chart.radius
    faces = mesh.faces[near[mesh.faces].all(axis=1)]
    used = np.unique(faces)
    coords = np.full((mesh.n_vertices, 3), np.nan)
    coords[used] = chart.to_fermi(mesh.vertices[used])
    tris = coords[faces]
    tv = grid_spec.h * np.arange(grid_spec.nt)
    sv = np.linspace(-grid_spec.s_half, grid_spec.s_half, grid_spec.ns)
    hits = {}
    E1 = tris[:, 1] - tris[:, 0]
    E2 = tris[:, 2] - tris[:, 0]
    for i, t in enumerate(tv):
        for j, s in enumerate(sv):
            q = t * w1 + s * w2
            rhs = q - tris[:, 0]
            M = np.stack([E1, E2, np.broadcast_to(-w3, E1.shape)], axis=2)
            ok = np.abs(np.linalg.det(M)) > 1e-14
            sol = np.linalg.solve(M[ok], rhs[ok][:, :, None])[:, :, 0]
            beta, gamma, tau = sol[:, 0], sol[:, 1], sol[:, 2]
            inside = (beta >= -1e-9) & (gamma >= -1e-9) & (beta + gamma <= 1 + 1e-9)
            dedup = []
            for u in np.sort(tau[inside]):
                if not dedup or u - dedup[-1] > 1e-9 * (1 + abs(u)):
                    dedup.append(float(u))
            hits[i, j] = dedup
    return hits


def _scenario_halfplane(chart, mesh):
    """(w1, w2) as the scenario runner's Fermi stage picks them."""
    n, e1, e2 = chart.frame
    nearest = int(np.argmin(np.linalg.norm(mesh.vertices - chart.base, axis=1)))
    bt = np.cross(vertex_normals(mesh)[nearest], n)
    bt /= np.linalg.norm(bt)
    return np.array([-1.0, 0.0, 0.0]), np.array([0.0, bt @ e1, bt @ e2])


_T0 = CRITICAL_CATENOID_T0
_A = catenoid_scale_for_unit_sphere(_T0)


@pytest.mark.parametrize("mesh, base", [
    (disk(1.0, 32, 96), P),
    (critical_catenoid(48, 48), np.array([_A * np.cosh(_T0), 0.0, _A * _T0])),
    (disk(1.0, 64, 128), P),
], ids=["disk", "catenoid", "disk-64-128"])
def test_graph_extract_equals_per_point_systems(mesh, base):
    chart = build_chart(BALL, base, 0.4)
    w1, w2 = _scenario_halfplane(chart, mesh)
    spec = GridSpec.default(chart.radius)
    sample = graph_extract(chart, mesh, (w1, w2), spec)
    hits = _graph_extract_per_point(chart, mesh, w1, w2, spec)
    assert sample.sheet_count == max(len(h) for h in hits.values()) >= 1
    want = np.full(sample.u.shape, np.nan)
    for (i, j), found in hits.items():
        want[i, j, :len(found)] = found
    # the closed-form barycentrics round differently from the 3x3 solves
    assert np.array_equal(sample.valid, ~np.isnan(want))
    assert np.abs(sample.u - want)[sample.valid].max() <= 1e-15
    reference = GraphSample(sample.t_values, sample.s_values, want, ~np.isnan(want),
                            sample.sheet_count)
    assert abs(neumann_residual(sample) - neumann_residual(reference)) <= 1e-15


_FLAT = Plane((0, 0, 0), (1, 0, 0))
# an orthonormal frame (w1, w2, w3) of chart space, turned off its axes
_W = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)))[0].T
_W[2] = np.cross(_W[0], _W[1])


def _sheet(tsu, faces):
    """The mesh whose vertices have frame coordinates (t, s, u) in the
    affine chart of the plane x = 0 at the origin, and that chart."""
    chart = build_chart(_FLAT, np.zeros(3), 1.0)
    return chart, TriangleMesh(chart.from_fermi(np.asarray(tsu) @ _W), faces)


def _lift(patch, u):
    """(t, s, u(t, s)) at the vertices of a flat grid patch."""
    t, s = patch.vertices[:, 0], patch.vertices[:, 1]
    return np.column_stack([t, s, u(t, s)])


def test_tilted_plane_heights_are_exact():
    # mesh lines every 0.05 in t and 0.04 in s: every grid point falls on a
    # vertex or on an edge shared by two faces, and each is one sheet
    patch = grid_patch(10, 10, x_range=(-0.1, 0.4), y_range=(-0.2, 0.2))
    chart, mesh = _sheet(_lift(patch, lambda t, s: 0.3 * t - 0.7 * s), patch.faces)
    spec = GridSpec(h=0.05, nt=6, s_half=0.12, ns=13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = graph_extract(chart, mesh, (_W[0], _W[1]), spec)
    assert sample.sheet_count == 1 and sample.valid.all()
    t, s = np.meshgrid(sample.t_values, sample.s_values, indexing="ij")
    assert np.abs(sample.u[..., 0] - (0.3 * t - 0.7 * s)).max() <= 1e-14


def test_faces_parallel_to_the_height_axis_are_skipped():
    # a step: u = 0 for s < 0.01, a vertical wall at s = 0.01, u = 0.1 past it
    lower = grid_patch(5, 4, x_range=(-0.1, 0.4), y_range=(-0.2, 0.01))
    upper = grid_patch(5, 4, x_range=(-0.1, 0.4), y_range=(0.01, 0.2))
    wall = grid_patch(5, 2, x_range=(-0.1, 0.4), y_range=(0.0, 0.1))
    tsu = np.vstack([_lift(lower, lambda t, s: np.zeros_like(t)),
                     _lift(upper, lambda t, s: np.full_like(t, 0.1)),
                     wall.vertices[:, [0, 2, 1]] + [0.0, 0.01, 0.0]])
    n1, n2 = lower.n_vertices, lower.n_vertices + upper.n_vertices
    faces = np.vstack([lower.faces, upper.faces + n1, wall.faces + n2])
    chart, mesh = _sheet(tsu, faces)
    spec = GridSpec(h=0.05, nt=4, s_half=0.1, ns=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = graph_extract(chart, mesh, (_W[0], _W[1]), spec)
        assert sample.sheet_count == 1 and sample.valid.all()
        want = np.where(sample.s_values > 0.01, 0.1, 0.0)
        assert np.abs(sample.u[..., 0] - want).max() <= 1e-14
        # a wall alone meets no grid line
        chart, mesh = _sheet(tsu[n2:] - [0.0, 0.01, 0.0], wall.faces)
        with pytest.raises(ValueError, match="no intersection"):
            graph_extract(chart, mesh, (_W[0], _W[1]), spec)
