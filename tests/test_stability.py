"""Second-variation form assembly and the lowest eigenpair."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.optimize import brentq
from scipy.spatial import cKDTree
from scipy.special import i0, i1

from fbms.blowup import reflect_double
from fbms.constraints import Ellipsoid, Plane, Sphere, Torus
from fbms.mesh import TriangleMesh, refine, vertex_normals
from fbms.samplers import (
    CRITICAL_CATENOID_T0,
    critical_catenoid,
    disk,
    half_catenoid,
    strip_on_plane,
)
from fbms.stability import (
    assemble_stability_form,
    is_stable,
    lowest_eigenpair,
)
from fbms.variation import area_gradient, verify_minimal

STRIP = strip_on_plane(12)
STRIP_N = Plane((0, 0, 0), (1, 0, 0))
BALL = Sphere((0, 0, 0), 1.0)


def _form(mesh, constraint):
    """The assembled form, expecting the warning where the mesh does not
    verify as minimal."""
    check = verify_minimal(mesh, constraint)
    if check["passes"]:
        return assemble_stability_form(mesh, constraint, check)
    with pytest.warns(UserWarning, match="mesh does not verify as minimal"):
        return assemble_stability_form(mesh, constraint, check)


def test_operator_is_symmetric():
    form = assemble_stability_form(STRIP, STRIP_N)
    A = form.operator()
    assert (A != A.T).nnz == 0


def test_rayleigh_consistency_random_fields():
    form = assemble_stability_form(STRIP, STRIP_N)
    lam, vec, res = lowest_eigenpair(form)
    assert res <= 1e-8
    m = form.mass.diagonal()
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.standard_normal(len(m))
        rq = float(f @ (form.operator() @ f)) / float(f @ (m * f))
        assert rq >= lam - 1e-9 * (1 + abs(lam))


def test_strip_dirichlet_field_gives_dirichlet_energy():
    # on the flat strip both |A|^2 and the plane's second form vanish, so
    # Q(f) is the Dirichlet energy of the piecewise-linear f, summed here face
    # by face from its constant gradient; f = (1 - x) y (1 - y) vanishes on
    # the three pinned sides
    form = assemble_stability_form(STRIP, STRIP_N)
    x, y = STRIP.vertices[:, 0], STRIP.vertices[:, 1]
    f = (1.0 - x) * y * (1.0 - y)
    assert np.all(f[STRIP.topology.pinned] == 0.0)
    want = 0.0
    for face in STRIP.faces:
        edges = STRIP.vertices[face[1:], :2] - STRIP.vertices[face[0], :2]
        grad = np.linalg.solve(edges, f[face[1:]] - f[face[0]])
        want += 0.5 * abs(np.linalg.det(edges)) * (grad @ grad)
    fa = f[form.admissible]
    assert np.isclose(fa @ (form.operator() @ fa), want, rtol=1e-12, atol=1e-14)


def test_strip_is_stable():
    report = is_stable(STRIP, STRIP_N)
    assert report.stable
    assert report.lambda_min >= -1e-8
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["stable"] is True
    assert len(payload["eigenfunction"]) == STRIP.n_vertices
    assert np.all(report.eigenfunction[STRIP.topology.pinned] == 0.0)


@pytest.mark.parametrize("mesh, constraint, n_corners", [
    (strip_on_plane(6), STRIP_N, 2),
    (half_catenoid(1.0, 4, 12), Plane((0, 0, 0), (0, 0, 1)), 0),
], ids=["strip", "half-catenoid"])
def test_form_rows_are_the_vertices_the_gradient_moves(mesh, constraint, n_corners):
    # one notion of which vertices may move: on a generic perturbation the
    # admissible gradient is nonzero exactly on the form's rows, and the
    # corners where the sliding arc meets a pinned one are left out
    form = _form(mesh, constraint)
    rng = np.random.default_rng(2)
    bumped = mesh.with_vertices(mesh.vertices + 0.01 * rng.standard_normal(mesh.vertices.shape))
    moved = np.nonzero(np.any(area_gradient(bumped, constraint) != 0.0, axis=1))[0]
    assert np.array_equal(form.admissible, moved)
    corners = np.nonzero(mesh.topology.corner)[0]
    assert len(corners) == n_corners
    assert not np.isin(corners, form.admissible).any()


def test_catenoid_potential_tracks_analytic_curvature():
    # |A|^2 = 2 / (c^2 cosh^4 t) on the scaled catenoid
    mesh = critical_catenoid(48, 48)
    form = assemble_stability_form(mesh, BALL)
    areas = mesh.vertex_areas()[form.admissible]
    a2 = form.potential.diagonal() / areas
    interior = ~mesh.is_boundary_vertex()
    rr = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    scale = rr[interior].min()  # waist radius = scale factor c
    cosh_t = rr[interior] / scale
    analytic = 2.0 / (scale**2 * cosh_t**4)
    rel = np.abs(a2[interior] - analytic) / analytic
    assert np.median(rel) < 0.1


def test_disk_unstable_in_ball():
    mesh = disk(1.0, 12, 36)
    report = is_stable(mesh, BALL)
    assert not report.stable
    assert report.lambda_min < -1.0


def test_disk_eigenvalue_stable_under_refinement():
    coarse = disk(1.0, 6, 18)
    lam = []
    mesh = coarse
    for _ in range(2):
        mesh = refine(mesh)
        # put refined rim midpoints back on the unit circle
        v = mesh.vertices.copy()
        idx = np.nonzero(mesh.constrained)[0]
        v[idx] = BALL.project(v[idx])
        mesh = mesh.with_vertices(v)
        form = assemble_stability_form(mesh, BALL)
        lam.append(lowest_eigenpair(form)[0])
    assert abs(lam[1] - lam[0]) < 0.05 * abs(lam[1])


def test_disk_lowest_eigenvalue_converges_at_second_order():
    # |A|^2 = 0 on the flat disk, so the ground state is f = I0(x r) with
    # lambda_1 = -x^2; the sphere's Robin condition f'(1) = f(1) fixes x by
    # x I1(x) / I0(x) = 1. The error must fall by about 4 per halving of h.
    x = brentq(lambda t: t * i1(t) / i0(t) - 1.0, 0.5, 3.0)
    errors = []
    for n in (12, 24, 48):
        form = assemble_stability_form(disk(1.0, n, 4 * n), BALL)
        lam, vec, res = lowest_eigenpair(form)
        errors.append(abs(lam + x * x))
        assert res <= 1e-10
        assert vec.min() > 0.0
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def _halving_ratios(errors):
    return [coarse / fine for coarse, fine in zip(errors, errors[1:])]


def test_strip_lowest_eigenvalue_converges_at_second_order():
    # the unit square with Dirichlet sides y = 0, y = 1, x = 1 and the
    # Neumann side x = 0: lambda_1 = (pi / 2)^2 + pi^2 = 5 pi^2 / 4, with
    # f = cos(pi x / 2) sin(pi y)
    errors = []
    for n in (8, 16, 32):
        lam, vec, res = lowest_eigenpair(assemble_stability_form(strip_on_plane(n), STRIP_N))
        errors.append(abs(lam - 1.25 * np.pi**2))
        assert res <= 1e-10
    assert all(3.5 <= r <= 4.5 for r in _halving_ratios(errors))


def test_half_catenoid_stability_threshold_converges_to_lindelof():
    # the half catenoid t in [0, T] with its waist sliding on z = 0 and its
    # top circle pinned doubles to the catenoid t in [-T, T] with fixed
    # boundary and even fields, stable up to Lindelof's t0, t0 tanh t0 = 1;
    # the T where lambda_min crosses 0 approaches t0 by 4 per halving of h
    plane = Plane((0, 0, 0), (0, 0, 1))
    errors = []
    for n in (16, 32, 64):
        def lam(T):
            return lowest_eigenpair(_form(half_catenoid(T, n, 2 * n), plane))[0]
        errors.append(abs(brentq(lam, 1.0, 1.4, xtol=1e-10) - CRITICAL_CATENOID_T0))
    assert all(3.5 <= r <= 4.5 for r in _halving_ratios(errors))


def test_catenoid_ground_state_is_positive():
    form = assemble_stability_form(critical_catenoid(48, 48), BALL)
    lam, vec, res = lowest_eigenpair(form)
    assert res <= 1e-10
    assert vec.min() > 0.0
    m = form.mass.diagonal()
    assert np.isclose(vec @ (m * vec), 1.0, rtol=1e-12)
    assert np.isclose(vec @ (form.operator() @ vec), lam, rtol=1e-12)


def test_doubling_preserves_even_mode_rayleigh_quotients():
    # the half strip's spectrum (Neumann on the sliding side, Dirichlet on
    # the pinned ones) embeds into the doubled strip's (Dirichlet all round)
    # through even reflection; Rayleigh quotients must match within 5%
    half = strip_on_plane(10)
    form_h = assemble_stability_form(half, STRIP_N)
    Mh = form_h.mass
    vals, reduced = spla.eigsh(form_h.operator().tocsc(), k=3, M=Mh.tocsc(),
                               sigma=-0.1)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = np.zeros((half.n_vertices, 3))
    vecs[form_h.admissible] = reduced[:, order]

    doubled = reflect_double(half, (np.zeros(3), np.array([1.0, 0.0, 0.0])))
    form_d = assemble_stability_form(doubled, STRIP_N)
    # locate each original vertex and its mirror image in the doubled mesh
    tree = cKDTree(doubled.vertices)
    orig = tree.query(half.vertices)[1]
    mirror_pts = half.vertices * np.array([-1.0, 1.0, 1.0])
    mirr = tree.query(mirror_pts)[1]
    for k in range(3):
        g = np.zeros(doubled.n_vertices)
        g[orig] = vecs[:, k]
        g[mirr] = vecs[:, k]
        g = g[form_d.admissible]
        rq = float(g @ (form_d.operator() @ g)) / float(
            g @ (form_d.mass.diagonal() * g)
        )
        assert abs(rq - vals[k]) < 0.05 * abs(vals[k]) + 1e-8


def test_assembly_warns_on_non_minimal_input():
    mesh = disk(1.0, 6, 18)
    v = mesh.vertices.copy()
    v[:, 2] = 0.2 * (1.0 - v[:, 0] ** 2 - v[:, 1] ** 2)
    bent = mesh.with_vertices(v)
    with pytest.warns(UserWarning, match=r"minimal.*\|H\|\^2 taken as 0 on the boundary"):
        assemble_stability_form(bent, BALL)


@pytest.mark.parametrize("constraint", [
    Sphere((0, 0, 0), 1.0),
    Ellipsoid((0, 0, 0), (1.0, 1.0, 0.7)),
    Torus((0, 0, 0), 0.7, 0.3),
], ids=["sphere", "ellipsoid", "torus"])
def test_boundary_second_form_matches_pointwise_loop(constraint):
    # a bumpy disk whose rim lies near N, so the vertex normals leave the
    # rim at varied angles; the form's boundary term equals A^N(v, v) times
    # the boundary length weight, evaluated one sliding vertex at a time
    flat = disk(1.0, 6, 24)
    v = flat.vertices + 0.05 * np.random.default_rng(3).standard_normal(
        flat.vertices.shape)
    mesh = TriangleMesh(v, flat.faces, flat.constrained)
    form = _form(mesh, constraint)
    idx = np.flatnonzero(flat.constrained)
    assert np.array_equal(form.admissible, np.arange(mesh.n_vertices))
    got = form.boundary.diagonal()
    assert not got[~flat.constrained].any()
    nu = vertex_normals(mesh)[idx]
    want = []
    for foot, n in zip(constraint.project(v[idx]), nu):
        nhat = constraint.unit_normal(foot)
        t = n - (n @ nhat) * nhat
        want.append(constraint.normal_second_form(foot, t / np.linalg.norm(t)))
    want = np.array(want) * mesh.boundary_length_weights()[idx]
    assert np.abs(got[idx] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mesh", [disk(1.0, 8, 24), critical_catenoid(16, 16)],
                         ids=["disk", "catenoid"])
def test_lowest_eigenpair_matches_dense_eigh(mesh):
    # the sparse factorization with diagonal pivots against LAPACK's dense
    # generalized symmetric eigensolver on the same form; the coarse
    # catenoid's rim misses orthogonality by 4e-2, which does not matter to
    # the linear algebra
    form = _form(mesh, BALL)
    lam, vec, res = lowest_eigenpair(form)
    m = form.mass.diagonal()
    vals, vecs = scipy.linalg.eigh(form.operator().toarray(), np.diag(m))
    assert vals[1] - vals[0] > 0.1  # a simple ground state
    want = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (m * vecs[:, 0]))
    if m @ want < 0:
        want = -want
    assert abs(lam - vals[0]) <= 1e-10 * abs(vals[0])
    assert np.abs(vec - want).max() <= 1e-10
    assert res <= 1e-10
