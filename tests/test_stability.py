"""Second-variation form assembly and the lowest eigenpair."""

import json
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.optimize import brentq
from scipy.spatial import cKDTree
from scipy.special import i0, i1

from fbms.blowup import reflect_double
from fbms.constraints import Ellipsoid, Graph, Plane, Sphere, Torus
from fbms.mesh import TriangleMesh, refine, vertex_normals
from fbms.samplers import critical_catenoid, disk, strip_on_plane
from fbms.stability import (
    _boundary_second_form_values,
    assemble_stability_form,
    is_stable,
    lowest_eigenpair,
    quadratic_form_value,
)

# strip corner vertices have rank-deficient 1-ring fits; the module warns
pytestmark = pytest.mark.filterwarnings("ignore:unreliable")

STRIP = strip_on_plane(12)
STRIP_N = Plane((0, 0, 0), (1, 0, 0))
BALL = Sphere((0, 0, 0), 1.0)


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
        rq = quadratic_form_value(form, f) / float(f @ (m * f))
        assert rq >= lam - 1e-9 * (1 + abs(lam))


def test_strip_linear_height_field_gives_dirichlet_energy():
    # on the flat strip both |A|^2 and the plane's second form vanish, so
    # Q(f) is the pure Dirichlet energy; f = x has |grad f| = 1, Q = area
    form = assemble_stability_form(STRIP, STRIP_N)
    f = STRIP.vertices[:, 0]
    assert np.isclose(quadratic_form_value(form, f), 1.0, atol=1e-10)


def test_strip_is_stable():
    report = is_stable(STRIP, STRIP_N)
    assert report.stable
    assert report.lambda_min >= -1e-8
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["stable"] is True
    assert len(payload["eigenfunction"]) == STRIP.n_vertices


def test_catenoid_potential_tracks_analytic_curvature():
    # |A|^2 = 2 / (c^2 cosh^4 t) on the scaled catenoid
    mesh = critical_catenoid(48, 48)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        form = assemble_stability_form(mesh, BALL)
    areas = mesh.vertex_areas()
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
        assert vec.values.min() > 0.0
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_catenoid_ground_state_is_positive():
    form = assemble_stability_form(critical_catenoid(48, 48), BALL)
    lam, vec, res = lowest_eigenpair(form)
    assert res <= 1e-10
    assert vec.values.min() > 0.0
    m = form.mass.diagonal()
    assert np.isclose(vec.values @ (m * vec.values), 1.0, rtol=1e-12)
    assert np.isclose(quadratic_form_value(form, vec), lam, rtol=1e-12)


def test_doubling_preserves_even_mode_rayleigh_quotients():
    # Dirichlet spectrum of the half strip embeds into the doubled strip
    # through even reflection; Rayleigh quotients must match within 5%
    half = strip_on_plane(10)
    form_h = assemble_stability_form(half, STRIP_N)
    Mh = form_h.mass
    vals, vecs = spla.eigsh(form_h.operator().tocsc(), k=3, M=Mh.tocsc(),
                            sigma=-0.1)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

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
        rq = quadratic_form_value(form_d, g) / float(
            g @ (form_d.mass.diagonal() * g)
        )
        assert abs(rq - vals[k]) < 0.05 * abs(vals[k]) + 1e-8


def test_assembly_warns_on_non_minimal_input():
    mesh = disk(1.0, 6, 18)
    v = mesh.vertices.copy()
    v[:, 2] = 0.2 * (1.0 - v[:, 0] ** 2 - v[:, 1] ** 2)
    bent = mesh.with_vertices(v)
    with pytest.warns(UserWarning, match="minimal"):
        assemble_stability_form(bent, BALL)


def test_quadratic_form_rejects_bad_fields():
    form = assemble_stability_form(STRIP, STRIP_N)
    with pytest.raises(ValueError):
        quadratic_form_value(form, np.zeros(3))
    bad = np.zeros(STRIP.n_vertices)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        quadratic_form_value(form, bad)


@pytest.mark.parametrize("constraint", [
    Sphere((0, 0, 0), 1.0),
    Ellipsoid((0, 0, 0), (1.0, 1.0, 0.7)),
    Torus((0, 0, 0), 0.7, 0.3),
    Graph({"c0": 0.1, "cxx": 0.3, "cxy": 0.2, "cyy": -0.4}),
], ids=["sphere", "ellipsoid", "torus", "graph"])
def test_boundary_second_form_matches_pointwise_loop(constraint):
    # a bumpy disk whose rim lies near N, so the vertex normals leave the
    # rim at varied angles; the batched values equal A^N(v, v) evaluated one
    # constrained vertex at a time
    flat = disk(1.0, 6, 24)
    v = flat.vertices + 0.05 * np.random.default_rng(3).standard_normal(
        flat.vertices.shape)
    mesh = TriangleMesh(v, flat.faces, flat.constrained)
    idx, got = _boundary_second_form_values(mesh, constraint)
    assert np.array_equal(idx, np.flatnonzero(flat.constrained))
    nu = vertex_normals(mesh).values[idx]
    want = []
    for foot, n in zip(constraint.project(v[idx]), nu):
        nhat = constraint.unit_normal(foot)
        t = n - (n @ nhat) * nhat
        want.append(constraint.normal_second_form(foot, t / np.linalg.norm(t)))
    want = np.array(want)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("mesh", [disk(1.0, 8, 24), critical_catenoid(16, 16)],
                         ids=["disk", "catenoid"])
@pytest.mark.filterwarnings("ignore:mesh does not verify as minimal")
def test_lowest_eigenpair_matches_dense_eigh(mesh):
    # the sparse factorization with diagonal pivots against LAPACK's dense
    # generalized symmetric eigensolver on the same form; the coarse
    # catenoid's rim misses orthogonality by 4e-2, which does not matter to
    # the linear algebra
    form = assemble_stability_form(mesh, BALL)
    lam, vec, res = lowest_eigenpair(form)
    m = form.mass.diagonal()
    vals, vecs = scipy.linalg.eigh(form.operator().toarray(), np.diag(m))
    assert vals[1] - vals[0] > 0.1  # a simple ground state
    want = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (m * vecs[:, 0]))
    if m @ want < 0:
        want = -want
    assert abs(lam - vals[0]) <= 1e-10 * abs(vals[0])
    assert np.abs(vec.values - want).max() <= 1e-10
    assert res <= 1e-10
