"""Triangle meshes with marked boundary and their discrete differential operators.

Conventions used throughout the package:
  * vertex areas are one-third barycentric (also at the boundary),
  * boundary length weights are half the sum of incident boundary edge lengths,
  * the mean curvature vector H points so that the first variation of area is
    dA(X) = -sum_i (X_i . H_i) a_i over interior vertices (H points inward on a
    sphere with outward-oriented faces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

COT_CLAMP = 1e4  # cotangent weight clamp for near-degenerate triangles
DEGENERATE_AREA_REL = 1e-14


@dataclass(frozen=True)
class VertexField:
    """One scalar or one 3-vector per vertex."""

    values: np.ndarray
    kind: str  # "scalar" | "vector"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.kind not in ("scalar", "vector"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex field has non-finite entries")


class Topology:
    """Connectivity of one face set and its constrained flags, as arrays.

    Built once per (faces, constrained) pair and shared by the meshes that
    `TriangleMesh.with_vertices` derives. Half-edge 3 f + k runs from corner k
    to corner k + 1 of face f. Edge keys lo * n + hi are sorted and counted
    with np.unique; an edge used by one face is a boundary edge, oriented as
    that face uses it.

      edges             (E, 2) unique edges (lo, hi), lexicographic
      edge_valence      (E,) number of faces using each edge
      face_edges        (m, 3) edge index of the sides (a, b), (b, c), (c, a)
      boundary_edges    (B, 2) oriented boundary edges, in face order
      boundary_faces    (B,) the face of each boundary edge
      boundary_opposite (B,) the vertex of that face opposite the edge
      boundary_mask     (n,) vertex lies on a boundary edge
      corner            (n,) constrained vertex where the constrained arc
                        meets an unconstrained (pinned) boundary arc
      neighbor_ptr, neighbors   1-ring in CSR form, neighbors ascending
      boundary_loops    vertex lists (see _boundary_loops), or None when the
                        boundary edges are not disjoint closed loops
    """

    def __init__(self, faces, constrained):
        n, m = len(constrained), len(faces)
        tail = faces.ravel()
        head = faces[:, [1, 2, 0]].ravel()
        keys, side_edge, valence = np.unique(
            np.minimum(tail, head) * n + np.maximum(tail, head),
            return_inverse=True, return_counts=True,
        )
        self.edges = np.stack([keys // n, keys % n], axis=1)
        self.edge_valence = valence
        self.face_edges = side_edge.reshape(m, 3)

        half = np.nonzero(valence[side_edge] == 1)[0]
        self.boundary_edges = np.stack([tail[half], head[half]], axis=1)
        self.boundary_faces = half // 3
        self.boundary_opposite = faces[half // 3, (half + 2) % 3]
        self.boundary_mask = np.zeros(n, dtype=bool)
        self.boundary_mask[self.boundary_edges] = True
        ends = constrained[self.boundary_edges]
        mixed = ends[:, 0] != ends[:, 1]
        self.corner = np.zeros(n, dtype=bool)
        self.corner[self.boundary_edges[mixed][ends[mixed]]] = True

        both = np.concatenate([self.edges, self.edges[:, ::-1]])
        both = both[np.argsort(both[:, 0] * n + both[:, 1])]
        self.neighbors = both[:, 1]
        self.neighbor_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(both[:, 0], minlength=n))]
        )
        for arr in vars(self).values():
            arr.setflags(write=False)
        self.boundary_loops = _boundary_loops(self.boundary_edges)


def _boundary_loops(bedges):
    """Closed loops of oriented boundary edges, by pointer doubling.

    Each loop starts at its smallest vertex; loops come in order of it. Returns
    None unless every boundary vertex has exactly one outgoing and one
    incoming boundary edge.
    """
    verts = np.unique(bedges)
    if not all(np.array_equal(np.sort(ends), verts) for ends in bedges.T):
        return None
    count = len(verts)
    if count == 0:
        return []
    ids = np.arange(count)
    pos = np.searchsorted(verts, bedges)
    succ = np.empty(count, dtype=np.int64)
    succ[pos[:, 0]] = pos[:, 1]
    # label: the smallest (compressed) vertex of each loop
    label, jump = ids, succ
    for _ in range(count.bit_length()):
        label, jump = np.minimum(label, label[jump]), jump[jump]
    # rank: steps from the loop's start, by list ranking along predecessors
    start = label == ids
    pred = np.empty(count, dtype=np.int64)
    pred[succ] = ids
    rank, jump = (~start).astype(np.int64), np.where(start, ids, pred)
    for _ in range(count.bit_length()):
        rank, jump = rank + rank[jump], jump[jump]
    order = np.lexsort((rank, label))
    cuts = np.nonzero(np.diff(label[order]))[0] + 1
    return [verts[run].tolist() for run in np.split(order, cuts)]


class TriangleMesh:
    """Immersed surface with boundary, stored as an immutable indexed face set.

    `constrained` flags boundary vertices whose position must satisfy the
    constraint equation; it is carried by the mesh but interpreted elsewhere.
    Connectivity (`topology`), the per-face geometry of the vertex positions
    and the cotangent Laplacian are computed on first use and cached.
    """

    def __init__(self, vertices, faces, constrained=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be (m, 3)")
        n = len(self.vertices)
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= n):
            raise ValueError("face index out of range")
        if constrained is None:
            constrained = np.zeros(n, dtype=bool)
        self.constrained = np.asarray(constrained, dtype=bool).copy()
        if len(self.constrained) != n:
            raise ValueError("constrained flags must match vertex count")
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        self.constrained.setflags(write=False)
        self._topology = None
        self._frame = None
        self._laplacian = None

    # -- basic combinatorics -------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def topology(self) -> Topology:
        if self._topology is None:
            self._topology = Topology(self.faces, self.constrained)
        return self._topology

    def boundary_edges(self):
        """(B, 2) directed boundary edges (u, v), each on exactly one face."""
        return self.topology.boundary_edges

    @property
    def boundary_loops(self):
        """Ordered boundary vertex loops, following face orientation."""
        loops = self.topology.boundary_loops
        if loops is None:
            raise ValueError("boundary edges do not form disjoint closed loops")
        return loops

    def boundary_vertices(self):
        return np.nonzero(self.topology.boundary_mask)[0]

    def is_boundary_vertex(self):
        return self.topology.boundary_mask.copy()

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def with_vertices(self, vertices):
        """Same connectivity, new positions; the topology is shared."""
        m = TriangleMesh(vertices, self.faces, self.constrained)
        m._topology = self._topology
        return m

    # -- metric quantities ---------------------------------------------------

    def _face_frame(self):
        """Per face, as (3, m) component arrays from one gather of the vertex
        coordinates: the sides opposite corners 0, 1, 2 (x2 - x1, x0 - x2,
        x1 - x0), the raw normal (x1 - x0) x (x2 - x0), and its length, twice
        the face area. Cached; the vertices are immutable."""
        if self._frame is None:
            x = np.take(np.ascontiguousarray(self.vertices.T), self.faces.T, axis=1)
            sides = (x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0])
            normals = _cross(sides[2], x[:, 2] - x[:, 0])
            self._frame = (sides, normals, _norm(normals))
        return self._frame

    def face_areas(self):
        return 0.5 * self._face_frame()[2]

    def edge_lengths(self):
        """(3, m) lengths of the sides (x0, x1), (x1, x2), (x2, x0) of each face."""
        s0, s1, s2 = self._face_frame()[0]
        return np.stack([_norm(s2), _norm(s0), _norm(s1)])

    def vertex_areas(self):
        """One-third barycentric lumped vertex areas."""
        return _scatter_corners(self, np.tile(self.face_areas() / 3.0, 3))

    def boundary_length_weights(self):
        """Half the incident boundary edge lengths, per vertex (0 off-boundary)."""
        be = self.topology.boundary_edges
        d = self.vertices[be[:, 0]] - self.vertices[be[:, 1]]
        half = 0.5 * np.sqrt(np.vecdot(d, d))
        return np.bincount(be.T.ravel(), np.tile(half, 2), minlength=self.n_vertices)


def _scatter_corners(mesh, values):
    """Sums values given per face corner (corner 0 of every face, then corner
    1, then corner 2) into their vertices, in that order, as three np.add.at
    calls would. `values` is (3m,), or (k, 3m) for k components."""
    idx = mesh.faces.T.ravel()
    if values.ndim == 1:
        return np.bincount(idx, values, minlength=mesh.n_vertices)
    return np.stack([np.bincount(idx, v, minlength=mesh.n_vertices) for v in values], axis=1)


def _cross(a, b):
    """a x b for (3, m) component arrays, rounded exactly as np.cross."""
    return np.stack([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _norm(a):
    """Lengths of (3, m) component arrays, summed in the order of
    np.linalg.norm(axis=1) on the (m, 3) layout."""
    return np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])


# -- validation ---------------------------------------------------------------


def validate_mesh(mesh: TriangleMesh) -> list[str]:
    """Invariant check; returns a list of violations (empty iff valid)."""
    violations = []
    topo = mesh.topology
    f = mesh.faces
    n = mesh.n_vertices

    shared = topo.edge_valence > 2
    for (u, v), k in zip(topo.edges[shared].tolist(), topo.edge_valence[shared].tolist()):
        violations.append(f"edge ({u},{v}) shared by {k} faces")
    keys, counts = np.unique(f.ravel() * n + f[:, [1, 2, 0]].ravel(), return_counts=True)
    for key in keys[counts > 1].tolist():
        violations.append(
            f"edge appears twice in same direction ({key // n},{key % n}): "
            "inconsistent face orientation"
        )

    diam = mesh.diameter()
    if diam == 0.0:
        violations.append("mesh has zero diameter")
        return violations
    areas = mesh.face_areas()
    for fi in np.nonzero(areas <= DEGENERATE_AREA_REL * diam * diam)[0]:
        violations.append(f"degenerate face {fi} (area {areas[fi]:.3g})")
    repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 2] == f[:, 0])
    for fi in np.nonzero(repeated)[0]:
        violations.append(f"degenerate face {fi} (repeated vertex)")

    if topo.boundary_loops is None:
        violations.append("boundary loops do not partition the boundary vertices")
    bad = np.nonzero(mesh.constrained & ~topo.boundary_mask)[0]
    if len(bad):
        violations.append(f"constrained flag on non-boundary vertices {bad.tolist()}")
    return violations


# -- discrete operators -------------------------------------------------------


def vertex_normals(mesh: TriangleMesh) -> VertexField:
    """Area-weighted average of incident face normals, unit length."""
    raw = mesh._face_frame()[1]  # already area-weighted
    acc = _scatter_corners(mesh, np.tile(raw, 3))
    norms = np.linalg.norm(acc, axis=1)
    if np.any(norms < 1e-12):
        bad = np.nonzero(norms < 1e-12)[0]
        raise ValueError(f"vertex normal undefined (fold/cusp) at vertices {bad.tolist()}")
    return VertexField(acc / norms[:, None], "vector")


def cotangent_laplacian(mesh: TriangleMesh) -> sp.csr_matrix:
    """Positive semi-definite cotangent Laplacian, weights clamped for slivers.

    Built once per mesh and kept on it, since the vertices are immutable; its
    arrays are read-only, so the shared matrix cannot be changed in place."""
    if mesh._laplacian is None:
        L = _assemble_laplacian(mesh)
        for arr in (L.data, L.indices, L.indptr):
            arr.setflags(write=False)
        mesh._laplacian = L
    return mesh._laplacian


def _assemble_laplacian(mesh: TriangleMesh) -> sp.csr_matrix:
    v = mesh.vertices
    f = mesh.faces
    rows, cols, vals = [], [], []
    for k in range(3):
        i = f[:, k]
        j = f[:, (k + 1) % 3]
        o = f[:, (k + 2) % 3]  # vertex opposite edge (i, j)
        a = v[i] - v[o]
        b = v[j] - v[o]
        cross = np.linalg.norm(np.cross(a, b), axis=1)
        cross = np.maximum(cross, 1e-300)
        cot = np.einsum("ij,ij->i", a, b) / cross
        w = 0.5 * np.clip(cot, -COT_CLAMP, COT_CLAMP)
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([-w, -w])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    L = sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_vertices,) * 2)
    L = L + sp.diags(-np.asarray(L.sum(axis=1)).ravel())
    return L.tocsr()


def mean_curvature_vector(mesh: TriangleMesh) -> VertexField:
    """Discrete mean curvature vector H (cotangent formula over lumped areas).

    At boundary vertices the same formula is returned; there the value carries
    the conormal contribution of the first variation rather than curvature.
    """
    L = cotangent_laplacian(mesh)
    areas = mesh.vertex_areas()
    H = -(L @ mesh.vertices) / areas[:, None]
    return VertexField(H, "vector")


def area_gradient_raw(mesh: TriangleMesh) -> np.ndarray:
    """Exact gradient of total discrete area with respect to vertex positions."""
    sides, n, nrm = mesh._face_frame()
    nhat = n / np.maximum(nrm, 1e-300)
    # d(face area)/d(x_k) = 0.5 * nhat x (side opposite corner k)
    return _scatter_corners(mesh, np.concatenate([0.5 * _cross(nhat, s) for s in sides], axis=1))


def second_fundamental_norm(mesh: TriangleMesh):
    """Per-vertex |A|^2 from a least-squares shape-operator fit over the 1-ring.

    At vertex i, with u_j and w_j the tangent-plane coordinates of x_j - x_i
    and nu_j - nu_i over the neighbors j, the shape operator S minimizes
    sum |S^T u_j - w_j|^2; all vertices are solved at once from their 2x2
    normal equations. Returns (field, unreliable) where `unreliable` lists
    vertices with fewer than 3 neighbors or whose u_j do not span the tangent
    plane (smallest singular value at most 1e-10).
    """
    normals = vertex_normals(mesh).values
    topo = mesh.topology
    n = mesh.n_vertices
    rows = np.repeat(np.arange(n), np.diff(topo.neighbor_ptr))
    cols = topo.neighbors
    t1 = _any_orthonormal(normals)
    t2 = np.cross(normals, t1)
    e = mesh.vertices[cols] - mesh.vertices[rows]
    dn = normals[cols] - normals[rows]
    u = [np.einsum("ij,ij->i", e, t[rows]) for t in (t1, t2)]
    w = [np.einsum("ij,ij->i", dn, t[rows]) for t in (t1, t2)]

    def vsum(x):
        return np.bincount(rows, x, minlength=n)

    a, b, c = vsum(u[0] * u[0]), vsum(u[0] * u[1]), vsum(u[1] * u[1])
    # the Gram determinant a c - b^2 as a times the squared residual of the
    # second column against the first, free of cancellation
    ratio = np.divide(b, a, out=np.zeros(n), where=a > 0)
    r = u[1] - ratio[rows] * u[0]
    det = a * vsum(r * r)
    lam_max = 0.5 * (a + c + np.hypot(a - c, 2.0 * b))
    sigma_min_sq = np.divide(det, lam_max, out=np.zeros(n), where=lam_max > 0)
    reliable = (np.diff(topo.neighbor_ptr) >= 3) & (sigma_min_sq > 1e-20)

    # S = G^{-1} B with G = [[a, b], [b, c]] and B[p, q] = sum u_p w_q
    B = [[vsum(u[p] * w[q]) for q in (0, 1)] for p in (0, 1)]
    inv_det = np.divide(1.0, det, out=np.zeros(n), where=reliable)
    s00 = (c * B[0][0] - b * B[1][0]) * inv_det
    s01 = (c * B[0][1] - b * B[1][1]) * inv_det
    s10 = (a * B[1][0] - b * B[0][0]) * inv_det
    s11 = (a * B[1][1] - b * B[0][1]) * inv_det
    sym = 0.5 * (s01 + s10)  # shape operator, symmetrized
    values = np.where(reliable, s00 * s00 + 2.0 * sym * sym + s11 * s11, 0.0)
    return VertexField(values, "scalar"), np.nonzero(~reliable)[0].tolist()


def _conormals(mesh: TriangleMesh) -> np.ndarray:
    """(n, 3) outward unit conormals, NaN rows off the boundary.

    Averages the in-plane outward edge normals of the incident boundary edges,
    projects tangent to the surface, and renormalizes. Row dot products use
    np.vecdot, which rounds as the 1-D `a @ b` and np.linalg.norm of one row
    do (BLAS ddot)."""
    topo = mesh.topology
    v = mesh.vertices
    be, opp = topo.boundary_edges, topo.boundary_opposite
    d = v[be[:, 1]] - v[be[:, 0]]
    dn = np.sqrt(np.vecdot(d, d))
    keep = dn >= 1e-300
    be, opp, d, dn = be[keep], opp[keep], d[keep], dn[keep]
    dhat = d / dn[:, None]
    w = 0.5 * (v[be[:, 0]] + v[be[:, 1]]) - v[opp]
    w = w - np.vecdot(w, dhat)[:, None] * dhat
    wn = np.sqrt(np.vecdot(w, w))
    keep = wn >= 1e-14
    be, w = be[keep], w[keep] / wn[keep, None]

    # average over the incident edges, then make tangent to the surface
    ends = be.ravel()
    count = np.bincount(ends, minlength=mesh.n_vertices)
    total = np.stack([np.bincount(ends, np.repeat(c, 2), minlength=mesh.n_vertices)
                      for c in w.T], axis=1)
    idx = np.nonzero(count)[0]
    m = total[idx] / count[idx, None]
    nu = vertex_normals(mesh).values[idx]
    m = m - np.vecdot(m, nu)[:, None] * nu
    mn = np.sqrt(np.vecdot(m, m))
    if np.any(mn < 1e-12):
        raise ValueError(f"undefined conormal at boundary vertex {idx[mn < 1e-12][0]}")
    eta = np.full((mesh.n_vertices, 3), np.nan)
    eta[idx] = m / mn[:, None]
    return eta


def total_area(mesh: TriangleMesh) -> float:
    return float(mesh.face_areas().sum())


def refine(mesh: TriangleMesh) -> TriangleMesh:
    """Midpoint 1-to-4 subdivision; no re-projection of constrained midpoints.

    The midpoint of topology edge k becomes vertex n_vertices + k; it is
    constrained when its edge is a boundary edge between constrained vertices.
    """
    topo = mesh.topology
    u, v = topo.edges.T
    verts = np.vstack([mesh.vertices, 0.5 * (mesh.vertices[u] + mesh.vertices[v])])
    on_arc = (topo.edge_valence == 1) & mesh.constrained[u] & mesh.constrained[v]
    a, b, c = mesh.faces.T
    ab, bc, ca = (mesh.n_vertices + topo.face_edges).T
    faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return TriangleMesh(verts, faces.reshape(-1, 3), np.concatenate([mesh.constrained, on_arc]))


def _any_orthonormal(n):
    """Per row of unit vectors n, a unit vector orthogonal to it."""
    e = np.eye(3)[np.argmin(np.abs(n), axis=1)]
    t = np.cross(n, e)
    return t / np.linalg.norm(t, axis=1, keepdims=True)
