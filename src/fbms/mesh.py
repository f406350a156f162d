"""Triangle meshes with marked boundary and their discrete differential operators.

Conventions used throughout the package:
  * vertex areas are one-third barycentric (also at the boundary),
  * boundary length weights are half the sum of incident boundary edge lengths,
  * the mean curvature vector H points so that the first variation of area is
    dA(X) = -sum_i (X_i . H_i) a_i over interior vertices (H points inward on a
    sphere with outward-oriented faces).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

COT_CLAMP = 1e4  # cotangent weight clamp for near-degenerate triangles
DEGENERATE_AREA_REL = 1e-14


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
      boundary_opposite (B,) the vertex of that face opposite the edge
      boundary_mask     (n,) vertex lies on a boundary edge
      corner            (n,) constrained vertex where the constrained arc
                        meets an unconstrained (pinned) boundary arc
      pinned            (n,) boundary vertex held fixed: unconstrained, or a corner
      sliding           (n,) constrained vertex that slides on N: not a corner
      corners           (3m,) vertex at corner 0 of every face, then corner 1,
                        then corner 2
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
        self.boundary_opposite = faces[half // 3, (half + 2) % 3]
        self.boundary_mask = np.zeros(n, dtype=bool)
        self.boundary_mask[self.boundary_edges] = True
        ends = constrained[self.boundary_edges]
        mixed = ends[:, 0] != ends[:, 1]
        self.corner = np.zeros(n, dtype=bool)
        self.corner[self.boundary_edges[mixed][ends[mixed]]] = True
        self.pinned = (self.boundary_mask & ~constrained) | self.corner
        self.sliding = constrained & ~self.corner
        self.corners = faces.T.ravel()
        _read_only(*vars(self).values())


class TriangleMesh:
    """Immersed surface with boundary, stored as an immutable indexed face set.

    `constrained` flags boundary vertices whose position must satisfy the
    constraint equation; it is carried by the mesh but interpreted elsewhere.
    Since the vertices are immutable, the per-mesh quantities are computed on
    first use and cached on the mesh as read-only arrays: the connectivity
    (`topology`), the per-face geometry, the lumped vertex areas, the vertex
    normals and the cotangent Laplacian.
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
        _read_only(self.vertices, self.faces, self.constrained)

    # -- basic combinatorics -------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @cached_property
    def topology(self) -> Topology:
        return Topology(self.faces, self.constrained)

    def boundary_edges(self):
        """(B, 2) directed boundary edges (u, v), each on exactly one face."""
        return self.topology.boundary_edges

    def is_boundary_vertex(self):
        return self.topology.boundary_mask.copy()

    def diameter(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def with_vertices(self, vertices):
        """Same connectivity, new positions; the topology is shared."""
        m = TriangleMesh(vertices, self.faces, self.constrained)
        m.topology = self.topology
        return m

    # -- metric quantities ---------------------------------------------------

    @cached_property
    def _frame(self):
        """Per face, from one gather of the vertex coordinates: the sides
        opposite corners 0, 1, 2 (x2 - x1, x0 - x2, x1 - x0) as one (3, 3, m)
        array indexed [component, side, face], the raw normal
        (x1 - x0) x (x2 - x0) = s1 x s2 as (3, m) components, and its length,
        twice the face area."""
        x = np.take(np.ascontiguousarray(self.vertices.T), self.faces.T, axis=1)
        sides = np.empty_like(x)
        for c in range(3):
            np.subtract(x[:, (c + 2) % 3], x[:, (c + 1) % 3], out=sides[:, c])
        normals = _cross(sides[:, 1], sides[:, 2])
        lengths = _norm(normals)
        _read_only(sides, normals, lengths)
        return sides, normals, lengths

    @cached_property
    def _vertex_areas(self):
        return _read_only(_scatter_corners(self, np.tile(self.face_areas() / 3.0, 3)))

    @cached_property
    def _normals(self):
        """(n, 3) unit vertex normals; see vertex_normals."""
        acc = _scatter_corners(self, np.tile(self._frame[1], 3))  # area-weighted
        norms = np.linalg.norm(acc, axis=1)
        bad = np.nonzero(norms < 1e-12)[0]
        if len(bad):
            raise ValueError(f"vertex normal undefined (fold/cusp) at vertices {bad.tolist()}")
        return _read_only(acc / norms[:, None])

    @cached_property
    def _laplacian(self):
        return _assemble_laplacian(self)

    def face_areas(self):
        return 0.5 * self._frame[2]

    def face_normals(self):
        """(3, m) unit normals (x1 - x0) x (x2 - x0) / |.|, zero on a face of
        zero area."""
        _, normals, lengths = self._frame
        return normals / np.maximum(lengths, 1e-300)

    def edge_lengths(self):
        """(3, m) lengths of the sides (x0, x1), (x1, x2), (x2, x0) of each face."""
        return _norm(self._frame[0])[[2, 0, 1]]

    def vertex_areas(self):
        """One-third barycentric lumped vertex areas; built once per mesh and
        kept on it, read-only."""
        return self._vertex_areas

    def boundary_length_weights(self):
        """Half the incident boundary edge lengths, per vertex (0 off-boundary)."""
        be = self.topology.boundary_edges
        d = self.vertices[be[:, 0]] - self.vertices[be[:, 1]]
        half = 0.5 * np.sqrt(np.vecdot(d, d))
        return np.bincount(be.T.ravel(), np.tile(half, 2), minlength=self.n_vertices)

    def sliding_feet(self, constraint):
        """(idx, feet, normals): the sliding vertices, their nearest points on N
        and N's unit normal there; projected once per constraint, kept read-only."""
        if getattr(self, "_feet", (None,))[0] is not constraint:
            feet = constraint.project(self.vertices[self.topology.sliding])
            self._feet = (constraint, np.nonzero(self.topology.sliding)[0], feet,
                          constraint.unit_normal(feet))
            _read_only(*self._feet[1:])
        return self._feet[1:]


def _scatter_corners(mesh, values):
    """Sums values given per face corner (corner 0 of every face, then corner
    1, then corner 2) into their vertices, in that order, as three np.add.at
    calls would. `values` is (3m,), or (k, 3m) for k components."""
    idx = mesh.topology.corners
    if values.ndim == 1:
        return np.bincount(idx, values, minlength=mesh.n_vertices)
    return np.stack([np.bincount(idx, v, minlength=mesh.n_vertices) for v in values], axis=1)


def _read_only(*arrays):
    """Marks the arrays read-only; returns the first."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays[0]


def _cross(a, b):
    """a x b for (3, ...) component arrays, rounded exactly as np.cross."""
    c = np.empty(np.broadcast_shapes(a.shape, b.shape))
    np.subtract(a[1] * b[2], a[2] * b[1], out=c[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=c[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=c[2])
    return c


def _dot(a, b):
    """Dot products of (3, ...) component arrays, one per column."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _norm(a):
    """Lengths of (3, ...) component arrays, summed in the order of
    np.linalg.norm(axis=1) on the (m, 3) layout."""
    return np.sqrt(_dot(a, a))


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

    # the boundary edges form disjoint closed loops: each boundary vertex is
    # the tail of exactly one boundary edge and the head of exactly one
    verts = np.nonzero(topo.boundary_mask)[0]
    if not all(np.array_equal(np.sort(ends), verts) for ends in topo.boundary_edges.T):
        violations.append("boundary loops do not partition the boundary vertices")
    bad = np.nonzero(mesh.constrained & ~topo.boundary_mask)[0]
    if len(bad):
        violations.append(f"constrained flag on non-boundary vertices {bad.tolist()}")
    return violations


# -- discrete operators -------------------------------------------------------


def vertex_normals(mesh: TriangleMesh) -> np.ndarray:
    """(n, 3) area-weighted averages of the incident face normals, unit
    length. Built once per mesh and kept on it, read-only."""
    return mesh._normals


def cotangent_laplacian(mesh: TriangleMesh) -> sp.csr_matrix:
    """Positive semi-definite cotangent Laplacian, weights clamped for slivers.

    Built once per mesh and kept on it; its arrays are read-only, so the
    shared matrix cannot be changed in place."""
    return mesh._laplacian


def _assemble_laplacian(mesh: TriangleMesh, clip_negative=False) -> sp.csr_matrix:
    """The cotangent weights from the cached face frame, summed per edge.

    Column c of `face_edges` is the side s_c opposite corner c + 2, and the
    cotangent there is -(s_c . s_{c+1}) / |N|, with |N| twice the face area.
    Half of it, clamped, is the face's share of the edge weight w; off the
    diagonal L[u, v] = -w(u, v), and the diagonal makes each row sum to 0.
    With clip_negative, a negative w (an edge whose two opposite angles sum
    past pi) is set to 0 first, so the diagonal dominates each row.
    """
    sides, _, lengths = mesh._frame
    cot = -np.stack([_dot(sides[:, c], sides[:, (c + 1) % 3]) for c in range(3)], axis=1)
    half = 0.5 * np.clip(cot / np.maximum(lengths, 1e-300)[:, None], -COT_CLAMP, COT_CLAMP)
    topo = mesh.topology
    w = np.bincount(topo.face_edges.ravel(), half.ravel(), minlength=len(topo.edges))
    if clip_negative:
        w = np.maximum(w, 0.0)
    n = mesh.n_vertices
    diag = np.bincount(topo.edges.ravel(), np.repeat(w, 2), minlength=n)
    (u, v), i = topo.edges.T, np.arange(n)
    L = sp.csr_matrix((np.concatenate([-w, -w, diag]),
                       (np.concatenate([u, v, i]), np.concatenate([v, u, i]))), shape=(n, n))
    L.eliminate_zeros()
    _read_only(L.data, L.indices, L.indptr)
    return L


def mean_curvature_vector(mesh: TriangleMesh) -> np.ndarray:
    """Discrete mean curvature vector H (cotangent formula over lumped areas).

    At boundary vertices the same formula is returned; there the value carries
    the conormal contribution of the first variation rather than curvature.
    """
    areas = mesh.vertex_areas()
    if not areas.all():
        raise ValueError("zero lumped area at vertices "
                         f"{np.nonzero(areas == 0)[0].tolist()}: no face of positive area uses them")
    return -(cotangent_laplacian(mesh) @ mesh.vertices) / areas[:, None]


def area_gradient_raw(mesh: TriangleMesh) -> np.ndarray:
    """Exact gradient of total discrete area with respect to vertex positions."""
    sides = mesh._frame[0]
    nhat = mesh.face_normals()
    # d(face area)/d(x_k) = 0.5 * nhat x (side opposite corner k), all three
    # sides at once: (3, 3, m) reshaped to corner-major (3, 3m)
    return _scatter_corners(mesh, (0.5 * _cross(nhat[:, None], sides)).reshape(3, -1))


def second_fundamental_norm(mesh: TriangleMesh, constraint) -> np.ndarray:
    """Per-vertex |A|^2 = |H|^2 - 2K; NaN at the pinned vertices.

    K is the angle defect (2 pi, or pi on the boundary, minus the angle sum)
    over the lumped vertex area (Meyer, Desbrun, Schroeder & Barr 2003). At a
    sliding vertex Gauss-Bonnet also subtracts k_g l, l the boundary length
    weight; on a free-boundary surface the geodesic curvature of the boundary
    is k_g = h^N(T, T), T the boundary tangent x_next - x_prev made tangent
    to N at the vertex's foot. |H|^2 is taken as 0 on the boundary, where the
    cotangent H carries the conormal term: right on a minimal surface.
    """
    sides, _, lengths = mesh._frame
    # the angle at corner c lies between the sides s_{c+1} and s_{c+2}
    angles = [np.arctan2(lengths, -_dot(sides[:, (c + 1) % 3], sides[:, (c + 2) % 3]))
              for c in range(3)]
    topo = mesh.topology
    defect = np.where(topo.boundary_mask, np.pi, 2.0 * np.pi)
    defect -= _scatter_corners(mesh, np.concatenate(angles))
    idx, feet, nhat = mesh.sliding_feet(constraint)
    be, t = topo.boundary_edges, np.zeros_like(mesh.vertices)
    t[be[:, 0]] += mesh.vertices[be[:, 1]]  # + x_next: each boundary vertex is the
    t[be[:, 1]] -= mesh.vertices[be[:, 0]]  # - x_prev  tail of one edge, head of one
    t = t[idx] - np.vecdot(t[idx], nhat)[:, None] * nhat
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    # h^N(T, T) l is exact in the smooth limit and second order on the disk
    # and the half catenoid's waist; the boundary polygon's turning angle is
    # exact on the disk but first order on the critical catenoid's rims
    kg = constraint.normal_second_form(feet, t)
    defect[idx] -= kg * mesh.boundary_length_weights()[idx]
    H = mean_curvature_vector(mesh)
    h2 = np.where(topo.boundary_mask, 0.0, np.vecdot(H, H))
    return np.where(topo.pinned, np.nan, h2 - 2.0 * defect / mesh.vertex_areas())


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
    nu = vertex_normals(mesh)[idx]
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
