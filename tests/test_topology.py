"""Array topology and the vectorized mesh operators, against per-element
references (brute-force dicts and the per-vertex / per-edge loops they
replace)."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbms.blowup import reflect_double
from fbms.constraints import Plane, Sphere
from fbms.mesh import (
    COT_CLAMP,
    TriangleMesh,
    _conormals,
    area_gradient_raw,
    cotangent_laplacian,
    mean_curvature_vector,
    refine,
    second_fundamental_norm,
    total_area,
    validate_mesh,
    vertex_normals,
)
from fbms.samplers import (
    catenoid,
    critical_catenoid,
    disk,
    grid_patch,
    half_catenoid,
    half_disk,
    halfplane_patch,
    icosphere,
    spherical_cap_graph,
    strip_on_plane,
)
from fbms.scenarios import perturbed_critical_catenoid
from fbms.variation import _max_aspect_ratio

# two triangles sharing only vertex 0, which has two outgoing boundary edges
BOWTIE = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]], float),
                      np.array([[0, 1, 2], [0, 3, 4]]))

SAMPLERS = {
    "grid": lambda: grid_patch(3, 4),
    "strip": lambda: strip_on_plane(4),
    "disk": lambda: disk(1.0, 3, 12),
    "half_disk": lambda: half_disk(1.0, 3, 8),
    "catenoid": lambda: catenoid(-1.0, 1.0, 4, 10),
    "half_catenoid": lambda: half_catenoid(1.0, 3, 10),
    "icosphere": lambda: icosphere(1),
    "bowtie": lambda: BOWTIE,
}


def _shuffled(mesh, seed):
    """Same surface with the face rows permuted and each row rotated."""
    rng = np.random.default_rng(seed)
    faces = mesh.faces[rng.permutation(mesh.n_faces)]
    shift = rng.integers(0, 3, mesh.n_faces)
    faces = np.take_along_axis(faces, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return TriangleMesh(mesh.vertices, faces, mesh.constrained)


def _oracle(mesh):
    """Boundary edges, opposite vertices, whether the boundary walk closes up
    into loops and corners from Python dicts, the way the face loops used to
    build them."""
    directed = {}
    for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
        for u, v, o in ((a, b, c), (b, c, a), (c, a, b)):
            directed.setdefault((u, v), []).append(o)
    undirected = {}
    for (u, v), uses in directed.items():
        undirected.setdefault((min(u, v), max(u, v)), []).extend(uses)
    boundary = [
        (u, v, uses[0]) for (u, v), uses in directed.items()
        if len(undirected[(min(u, v), max(u, v))]) == 1
    ]
    corner = set()
    for u, v, _ in boundary:
        if mesh.constrained[u] != mesh.constrained[v]:
            corner.add(u if mesh.constrained[u] else v)
    return boundary, _loops_close(boundary), corner, sorted(undirected)


def _loops_close(boundary):
    """Whether walking the boundary edges from each vertex returns to it
    without meeting a vertex of two outgoing edges, of none, or of an
    earlier walk: whether the boundary is disjoint closed loops."""
    nxt = {}
    for u, v, _ in boundary:
        nxt.setdefault(u, []).append(v)
    seen = set()
    for start in sorted(nxt):
        if start in seen:
            continue
        cur = start
        while True:
            if cur in seen or len(nxt.get(cur, [])) != 1:
                return False
            seen.add(cur)
            cur = nxt[cur][0]
            if cur == start:
                break
    return True


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SAMPLERS)), st.integers(0, 2**32 - 1))
@example("bowtie", 0)
def test_topology_matches_dict_oracle(name, seed):
    mesh = _shuffled(SAMPLERS[name](), seed)
    topo = mesh.topology
    boundary, closed, corner, edges = _oracle(mesh)
    got = list(zip(topo.boundary_edges[:, 0].tolist(), topo.boundary_edges[:, 1].tolist(),
                   topo.boundary_opposite.tolist()))
    assert got == boundary
    assert set(np.nonzero(topo.corner)[0].tolist()) == corner
    constrained = set(np.nonzero(mesh.constrained)[0].tolist())
    on_boundary = {u for u, _, _ in boundary}
    assert set(np.nonzero(topo.pinned)[0].tolist()) == (on_boundary - constrained) | corner
    assert set(np.nonzero(topo.sliding)[0].tolist()) == constrained - corner
    assert np.array_equal(np.nonzero(topo.boundary_mask)[0],
                          sorted({u for u, _, _ in boundary}))
    assert topo.edges.tolist() == [list(e) for e in edges]
    # the bowtie is flagged for its boundary alone, every sampler not at all
    assert validate_mesh(mesh) == ([] if closed else
                                   ["boundary loops do not partition the boundary vertices"])


# sha256 of the vertices, faces and constrained flags of each builtin
# sampler at the catalog's params (critical_catenoid at the density
# benchmark's), of half_disk, and of an unconstrained grid_patch, as the
# per-vertex loops that the one grid triangulation replaced built them
PINNED_SAMPLERS = {
    "strip_on_plane": (lambda: strip_on_plane(n=12),
                       "b9b0eee694dbb470882b8c2f95680c95df7fdd471dc972148f2e12ad13753b8a"),
    "disk": (lambda: disk(radius=1.0, n_radial=20, n_angular=48),
             "7c2775d7ebdc7050f0a956f7451913e7b8697bb5bdf1a16dd8abf48158ea024c"),
    "critical_catenoid": (lambda: critical_catenoid(nt=64, ntheta=64),
                          "6a5c8e3432c56b437bae75595b3790d4910a6c7497d401783bae806edc66f051"),
    "perturbed_critical_catenoid": (
        lambda: perturbed_critical_catenoid(nt=64, ntheta=64),
        "a798ab4a0d5888eac91f8a0355045946ea097a94f973ba2976cc153573d6b5d8"),
    "half_catenoid": (lambda: half_catenoid(t_max=1.0, nt=32, ntheta=96),
                      "2acd0b916a21c5ff9d6723e8e982d54e82495bae0b3b1c199bf07afa89476439"),
    "spherical_cap_graph": (lambda: spherical_cap_graph(bulge=0.1, n_radial=16, n_angular=48),
                            "d9d0c2ac1f7a255b8c9a1da33d5822f16773024b2fa43b47ddc5d840e8f03811"),
    "halfplane_patch": (lambda: halfplane_patch(n=64),
                        "fd0d8addabc17df849d70a6a0fb2fcb9e53e244478a793b4e1eb0c03c1dd0f43"),
    "half_disk": (lambda: half_disk(1.0, 16, 48),
                  "1e4f8621e085bdf55ffc34680cc4975a5f8e696128393d024dae9a49b187102f"),
    "grid_patch": (lambda: grid_patch(5, 3),
                   "dd7e773eda2d49e0bf8d3e7e86d2519f4525e2b2204ec70c0f3f85e9d2423942"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLERS))
def test_sampler_output_is_pinned(name):
    build, want = PINNED_SAMPLERS[name]
    mesh = build()
    digest = hashlib.sha256()
    for arr in (mesh.vertices, mesh.faces, mesh.constrained):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == want


def test_with_vertices_shares_topology():
    mesh = half_disk(1.0, 3, 8)
    topo = mesh.topology
    moved = mesh.with_vertices(mesh.vertices * 2.0)
    assert moved.topology is topo
    assert not topo.boundary_edges.flags.writeable


def test_open_boundary_chain_is_reported():
    assert "boundary loops do not partition the boundary vertices" in validate_mesh(BOWTIE)


# -- second fundamental form ------------------------------------------------


def _second_fundamental_norm_loop(mesh, constraint):
    """|H|^2 - 2K one vertex at a time: the angle sum from arccos over each
    incident face, and k_g from the neighbors along the boundary loop."""
    v = mesh.vertices
    angle_sum = np.zeros(mesh.n_vertices)
    for face in mesh.faces.tolist():
        for k in range(3):
            i, j, o = face[k], face[(k + 1) % 3], face[(k + 2) % 3]
            a, b = v[j] - v[i], v[o] - v[i]
            angle_sum[i] += np.arccos(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    boundary = {u: w for u, w in mesh.boundary_edges().tolist()}
    before = {w: u for u, w in boundary.items()}
    H = mean_curvature_vector(mesh)
    areas = mesh.vertex_areas()
    topo = mesh.topology
    values = np.full(mesh.n_vertices, np.nan)
    for i in range(mesh.n_vertices):
        if topo.pinned[i]:
            continue
        if i not in boundary:
            values[i] = H[i] @ H[i] - 2.0 * (2.0 * np.pi - angle_sum[i]) / areas[i]
            continue
        foot = constraint.project(v[i][None])[0]
        n = constraint.unit_normal(foot)
        t = v[boundary[i]] - v[before[i]]
        t = t - (t @ n) * n
        kg = constraint.normal_second_form(foot, t / np.linalg.norm(t))
        ell = 0.5 * (np.linalg.norm(v[boundary[i]] - v[i]) + np.linalg.norm(v[i] - v[before[i]]))
        values[i] = -2.0 * (np.pi - angle_sum[i] - kg * ell) / areas[i]
    return values


@pytest.mark.parametrize("build, constraint", [
    (lambda: icosphere(3), Sphere((0, 0, 0), 1.0)),
    (lambda: critical_catenoid(16, 24), Sphere((0, 0, 0), 1.0)),
    (lambda: _perturbed(disk(1.0, 6, 24), 4, 0.01), Sphere((0, 0, 0), 1.0)),
    (lambda: strip_on_plane(4), Plane((0, 0, 0), (1, 0, 0))),
    (lambda: half_catenoid(1.0, 6, 16), Plane((0, 0, 0), (0, 0, 1))),
], ids=["icosphere", "critical-catenoid", "bumpy-disk", "strip", "half-catenoid"])
def test_second_fundamental_norm_matches_per_vertex_loop(build, constraint):
    mesh = build()
    want = _second_fundamental_norm_loop(mesh, constraint)
    got = second_fundamental_norm(mesh, constraint)
    assert np.array_equal(np.isnan(got), mesh.topology.pinned)
    ok = ~mesh.topology.pinned
    assert np.abs(got[ok] - want[ok]).max() <= 1e-9 * np.abs(want[ok]).max()


# -- operators that must stay bit-identical to the loops they replace --------


def _perturbed(mesh, seed=0, amp=0.02):
    rng = np.random.default_rng(seed)
    return mesh.with_vertices(mesh.vertices + amp * rng.standard_normal(mesh.vertices.shape))


def _area_gradient_add_at(mesh):
    v, f = mesh.vertices, mesh.faces
    n = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    nhat = n / np.maximum(np.linalg.norm(n, axis=1), 1e-300)[:, None]
    grad = np.zeros_like(v)
    for k in range(3):
        i, j, o = f[:, k], f[:, (k + 1) % 3], f[:, (k + 2) % 3]
        np.add.at(grad, i, 0.5 * np.cross(nhat, v[o] - v[j]))
    return grad


def test_scatters_equal_add_at_bit_for_bit():
    for mesh in (_perturbed(critical_catenoid(12, 16)), _perturbed(disk(1.0, 5, 16), 1)):
        f = mesh.faces
        raw = np.cross(mesh.vertices[f[:, 1]] - mesh.vertices[f[:, 0]],
                       mesh.vertices[f[:, 2]] - mesh.vertices[f[:, 0]])
        areas = np.zeros(mesh.n_vertices)
        acc = np.zeros((mesh.n_vertices, 3))
        for k in range(3):
            np.add.at(areas, f[:, k], 0.5 * np.linalg.norm(raw, axis=1) / 3.0)
            np.add.at(acc, f[:, k], raw)
        assert np.array_equal(mesh.vertex_areas(), areas)
        assert np.array_equal(vertex_normals(mesh),
                              acc / np.linalg.norm(acc, axis=1)[:, None])
        assert np.array_equal(area_gradient_raw(mesh), _area_gradient_add_at(mesh))


def _laplacian_per_corner(mesh):
    """The cotangent Laplacian from a cross product per face corner: one COO
    entry per corner and side, then a second sparse add for the diagonal."""
    v, f = mesh.vertices, mesh.faces
    rows, cols, vals = [], [], []
    for k in range(3):
        i, j, o = f[:, k], f[:, (k + 1) % 3], f[:, (k + 2) % 3]  # o opposite (i, j)
        a, b = v[i] - v[o], v[j] - v[o]
        cross = np.maximum(np.linalg.norm(np.cross(a, b), axis=1), 1e-300)
        w = 0.5 * np.clip(np.einsum("ij,ij->i", a, b) / cross, -COT_CLAMP, COT_CLAMP)
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-w, -w])
    L = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(mesh.n_vertices,) * 2)
    return (L + sp.diags(-np.asarray(L.sum(axis=1)).ravel())).tocsr()


@pytest.mark.parametrize("build", [
    lambda: perturbed_critical_catenoid(64, 64),
    lambda: disk(1.0, 64, 128),
    lambda: halfplane_patch(96),
    lambda: _perturbed(grid_patch(12, 9)),
], ids=["perturbed_catenoid", "disk", "halfplane_patch", "perturbed_grid"])
def test_laplacian_from_face_frame_matches_per_corner_assembly(build):
    # the frame's one twice-area per face replaces three cross products, so
    # the weights round differently: by a few units in the last place on
    # faces this well shaped, more on slivers, where |N| cancels
    mesh = build()
    L, want = cotangent_laplacian(mesh), _laplacian_per_corner(mesh)
    assert (L != L.T).nnz == 0
    assert abs(L - want).max() <= 1e-15 * abs(want).max()
    assert np.abs(np.asarray(L.sum(axis=1))).max() <= 1e-12 * abs(want).max()


def _boundary_conormal_loop(mesh):
    normals = vertex_normals(mesh)
    v = mesh.vertices
    per_vertex = {}
    for (a, b), o in zip(mesh.boundary_edges().tolist(), mesh.topology.boundary_opposite):
        d = v[b] - v[a]
        dhat = d / np.linalg.norm(d)
        w = 0.5 * (v[a] + v[b]) - v[o]
        w = w - (w @ dhat) * dhat
        w /= np.linalg.norm(w)
        for x in (a, b):
            per_vertex.setdefault(x, []).append(w)
    eta = {}
    for i, ws in per_vertex.items():
        m = np.mean(ws, axis=0)
        m = m - (m @ normals[i]) * normals[i]
        eta[i] = m / np.linalg.norm(m)
    return eta


def test_boundary_conormal_and_weights_equal_edge_loops():
    for mesh in (_perturbed(critical_catenoid(12, 16)), _perturbed(half_disk(1.0, 4, 8), 2),
                 spherical_cap_graph(0.1, 4, 12)):
        want = _boundary_conormal_loop(mesh)
        got = _conormals(mesh)
        assert np.flatnonzero(~np.isnan(got[:, 0])).tolist() == sorted(want)
        assert all(np.array_equal(got[i], want[i]) for i in want)
        weights = np.zeros(mesh.n_vertices)
        for a, b in mesh.boundary_edges().tolist():
            ell = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
            weights[a] += 0.5 * ell
            weights[b] += 0.5 * ell
        assert np.array_equal(mesh.boundary_length_weights(), weights)


def _aspect_three_norms(mesh):
    v, f = mesh.vertices, mesh.faces
    e = np.stack([np.linalg.norm(v[f[:, 1]] - v[f[:, 0]], axis=1),
                  np.linalg.norm(v[f[:, 2]] - v[f[:, 1]], axis=1),
                  np.linalg.norm(v[f[:, 0]] - v[f[:, 2]], axis=1)], axis=1)
    raw = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    areas = np.maximum(0.5 * np.linalg.norm(raw, axis=1), 1e-300)
    inradius = areas / (0.5 * e.sum(axis=1))
    return float((e.max(axis=1) / (2.0 * inradius)).max()), min(float(c.min()) for c in e.T)


def test_trial_evaluation_is_exact():
    for mesh in (_perturbed(critical_catenoid(12, 16)), _perturbed(grid_patch(5, 4), 3, 0.05)):
        aspect, area, min_edge = _max_aspect_ratio(mesh)
        want_aspect, want_min_edge = _aspect_three_norms(mesh)
        assert aspect == want_aspect
        assert area == total_area(TriangleMesh(mesh.vertices, mesh.faces))
        assert min_edge == want_min_edge


# -- refinement and doubling against the index loops they replace -------------


def _refine_loop(mesh):
    keys = sorted({tuple(sorted((int(a), int(b))))
                   for f in mesh.faces for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))})
    mid = {e: mesh.n_vertices + k for k, e in enumerate(keys)}
    verts = np.vstack([mesh.vertices] + [0.5 * (mesh.vertices[u] + mesh.vertices[v])
                                         for u, v in keys])
    bedges = {tuple(sorted(e)) for e in mesh.boundary_edges().tolist()}
    constrained = np.zeros(len(verts), dtype=bool)
    constrained[: mesh.n_vertices] = mesh.constrained
    for (u, v), k in mid.items():
        constrained[k] = (u, v) in bedges and mesh.constrained[u] and mesh.constrained[v]
    faces = []
    for a, b, c in mesh.faces.tolist():
        ab, bc, ca = (mid[tuple(sorted(p))] for p in ((a, b), (b, c), (c, a)))
        faces.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    return verts, np.array(faces), constrained


def test_refine_equals_index_loop():
    for mesh in (disk(1.0, 4, 12), half_catenoid(1.0, 3, 10), strip_on_plane(3)):
        got = refine(mesh)
        verts, faces, constrained = _refine_loop(mesh)
        assert np.array_equal(got.vertices, verts)
        assert np.array_equal(got.faces, faces)
        assert np.array_equal(got.constrained, constrained)


def test_reflect_double_equals_index_loop():
    for mesh, normal in ((half_catenoid(1.0, 24, 32), (0.0, 0.0, 1.0)),
                         (strip_on_plane(4), (1.0, 0.0, 0.0))):
        got = reflect_double(mesh, (np.zeros(3), np.array(normal)))
        n = mesh.n_vertices
        new_index, keep, counter = np.empty(n, dtype=int), [], n
        for i in range(n):
            if mesh.constrained[i]:
                new_index[i] = i
            else:
                new_index[i] = counter
                counter += 1
                keep.append(i)
        nrm = np.array(normal)
        mirrored = mesh.vertices - 2.0 * (mesh.vertices @ nrm)[:, None] * nrm
        assert np.array_equal(got.vertices, np.vstack([mesh.vertices, mirrored[keep]]))
        assert np.array_equal(got.faces, np.vstack([mesh.faces,
                                                    new_index[mesh.faces[:, [0, 2, 1]]]]))
