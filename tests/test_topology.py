"""Array topology and the vectorized mesh operators, against per-element
references (brute-force dicts and the per-vertex / per-edge loops they
replace)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbms.blowup import reflect_double
from fbms.mesh import (
    TriangleMesh,
    _conormals,
    area_gradient_raw,
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
    icosphere,
    spherical_cap_graph,
    strip_on_plane,
)
from fbms.variation import _max_aspect_ratio

SAMPLERS = {
    "grid": lambda: grid_patch(3, 4),
    "strip": lambda: strip_on_plane(4),
    "disk": lambda: disk(1.0, 3, 12),
    "half_disk": lambda: half_disk(1.0, 3, 8),
    "catenoid": lambda: catenoid(-1.0, 1.0, 4, 10),
    "half_catenoid": lambda: half_catenoid(1.0, 3, 10),
    "icosphere": lambda: icosphere(1),
}


def _shuffled(mesh, seed):
    """Same surface with the face rows permuted and each row rotated."""
    rng = np.random.default_rng(seed)
    faces = mesh.faces[rng.permutation(mesh.n_faces)]
    shift = rng.integers(0, 3, mesh.n_faces)
    faces = np.take_along_axis(faces, (np.arange(3) + shift[:, None]) % 3, axis=1)
    return TriangleMesh(mesh.vertices, faces, mesh.constrained)


def _oracle(mesh):
    """Boundary edges, faces, opposite vertices, loops, corners and 1-rings
    from Python dicts, the way the face loops used to build them."""
    directed = {}
    for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
        for u, v, o in ((a, b, c), (b, c, a), (c, a, b)):
            directed.setdefault((u, v), []).append((fi, o))
    undirected = {}
    for (u, v), uses in directed.items():
        undirected.setdefault((min(u, v), max(u, v)), []).extend(uses)
    boundary = [
        (u, v, uses[0][0], uses[0][1]) for (u, v), uses in directed.items()
        if len(undirected[(min(u, v), max(u, v))]) == 1
    ]
    nxt = {u: v for u, v, _, _ in boundary}
    loops, seen = [], set()
    for start in sorted(nxt):
        if start in seen:
            continue
        loop, cur = [start], nxt[start]
        seen.add(start)
        while cur != start:
            loop.append(cur)
            seen.add(cur)
            cur = nxt[cur]
        loops.append(loop)
    corner = set()
    for u, v, _, _ in boundary:
        if mesh.constrained[u] != mesh.constrained[v]:
            corner.add(u if mesh.constrained[u] else v)
    rings = [set() for _ in range(mesh.n_vertices)]
    for u, v in undirected:
        rings[u].add(v)
        rings[v].add(u)
    return boundary, loops, corner, [sorted(r) for r in rings], sorted(undirected)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SAMPLERS)), st.integers(0, 2**32 - 1))
def test_topology_matches_dict_oracle(name, seed):
    mesh = _shuffled(SAMPLERS[name](), seed)
    topo = mesh.topology
    boundary, loops, corner, rings, edges = _oracle(mesh)
    got = list(zip(topo.boundary_edges[:, 0].tolist(), topo.boundary_edges[:, 1].tolist(),
                   topo.boundary_faces.tolist(), topo.boundary_opposite.tolist()))
    assert got == boundary
    assert topo.boundary_loops == loops
    assert mesh.boundary_loops == loops
    assert set(np.nonzero(topo.corner)[0].tolist()) == corner
    assert np.array_equal(np.nonzero(topo.boundary_mask)[0],
                          sorted({u for u, _, _, _ in boundary}))
    ptr = topo.neighbor_ptr
    assert [topo.neighbors[ptr[i]:ptr[i + 1]].tolist() for i in range(mesh.n_vertices)] == rings
    assert topo.edges.tolist() == [list(e) for e in edges]
    assert validate_mesh(mesh) == []


def test_with_vertices_shares_topology():
    mesh = half_disk(1.0, 3, 8)
    topo = mesh.topology
    moved = mesh.with_vertices(mesh.vertices * 2.0)
    assert moved.topology is topo
    assert not topo.boundary_edges.flags.writeable


def test_open_boundary_chain_is_reported():
    # two triangles sharing only vertex 0: vertex 0 has two outgoing edges
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [-1, 0, 0], [-1, -1, 0]], float)
    bowtie = TriangleMesh(v, np.array([[0, 1, 2], [0, 3, 4]]))
    assert bowtie.topology.boundary_loops is None
    assert "boundary loops do not partition the boundary vertices" in validate_mesh(bowtie)


# -- second fundamental form ------------------------------------------------


def _any_orthonormal_row(n):
    k = np.argmin(np.abs(n))
    e = np.zeros(3)
    e[k] = 1.0
    t = np.cross(n, e)
    return t / np.linalg.norm(t)


def _second_fundamental_norm_lstsq(mesh):
    """Per-vertex least-squares shape operator, one lstsq per vertex."""
    normals = vertex_normals(mesh).values
    neighbors = [set() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces.tolist():
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
    values = np.zeros(mesh.n_vertices)
    unreliable = []
    for i in range(mesh.n_vertices):
        nb = sorted(neighbors[i])
        t1 = _any_orthonormal_row(normals[i])
        t2 = np.cross(normals[i], t1)
        e = mesh.vertices[nb] - mesh.vertices[i]
        dn = normals[nb] - normals[i]
        U = np.stack([e @ t1, e @ t2], axis=1)
        W = np.stack([dn @ t1, dn @ t2], axis=1)
        if len(nb) < 3 or np.linalg.matrix_rank(U, tol=1e-10) < 2:
            unreliable.append(i)
            continue
        S, *_ = np.linalg.lstsq(U, W, rcond=None)
        S = 0.5 * (S + S.T)
        values[i] = float(np.sum(S * S))
    return values, unreliable


def test_second_fundamental_norm_matches_per_vertex_lstsq():
    for mesh in (icosphere(3), critical_catenoid(16, 24), disk(1.0, 6, 24), strip_on_plane(4)):
        want, want_unreliable = _second_fundamental_norm_lstsq(mesh)
        got, unreliable = second_fundamental_norm(mesh)
        assert unreliable == want_unreliable
        assert np.all(np.abs(got.values - want) <= 1e-12 * np.abs(want))
    assert _second_fundamental_norm_lstsq(strip_on_plane(4))[1]  # corners: 2 neighbors


def test_second_fundamental_norm_rank_test_matches_svd():
    # vertex 0 has three neighbors; with y = 1e-11 their tangent-plane
    # coordinates (1, 0), (0, y), (-1, 0) have smallest singular value below
    # 1e-10, so the fit there is rank deficient
    for y, deficient in ((1e-11, True), (1e-9, False)):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, y, 0], [-1, 0, 0]], float)
        mesh = TriangleMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))
        _, want = _second_fundamental_norm_lstsq(mesh)
        _, got = second_fundamental_norm(mesh)
        assert got == want
        assert (0 in got) == deficient


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
        assert np.array_equal(vertex_normals(mesh).values,
                              acc / np.linalg.norm(acc, axis=1)[:, None])
        assert np.array_equal(area_gradient_raw(mesh), _area_gradient_add_at(mesh))


def _boundary_conormal_loop(mesh):
    normals = vertex_normals(mesh).values
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
