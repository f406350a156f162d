"""Mesh data structure and discrete operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbms.mesh import (
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
from fbms.obj_io import read_obj, write_obj
from fbms.samplers import (
    catenoid,
    disk,
    grid_patch,
    half_disk,
    icosphere,
    strip_on_plane,
)
from fbms.scenarios import _BUILTIN_SAMPLERS


def test_flat_square_is_valid_and_has_unit_area():
    m = grid_patch(8, 8)
    assert validate_mesh(m) == []
    assert np.isclose(total_area(m), 1.0)


def test_validate_rejects_flipped_face():
    m = grid_patch(4, 4)
    faces = m.faces.copy()
    faces[0] = faces[0][::-1]
    bad = TriangleMesh(m.vertices, faces, m.constrained)
    assert any("orientation" in v for v in validate_mesh(bad))


def test_validate_rejects_overshared_edge():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0.5]], float)
    f = np.array([[0, 1, 2], [0, 2, 3], [1, 0, 3], [0, 1, 4]])
    bad = TriangleMesh(v, f, np.zeros(5, bool))
    assert any("shared by" in msg or "twice" in msg for msg in validate_mesh(bad))


def test_laplacian_symmetric_psd():
    m = disk(1.0, 8, 24)
    L = cotangent_laplacian(m)
    assert (L != L.T).nnz == 0
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = rng.standard_normal(m.n_vertices)
        assert f @ (L @ f) >= -1e-10


def test_sphere_mean_curvature_magnitude_and_direction():
    m = icosphere(3)
    H = mean_curvature_vector(m).values
    mags = np.linalg.norm(H, axis=1)
    # unit sphere: |H| = 2, pointing toward the center
    assert abs(mags.mean() - 2.0) < 0.05
    inward = -np.einsum("ij,ij->i", H, m.vertices) / mags
    assert inward.min() > 0.99


def test_sphere_second_fundamental_norm():
    m = icosphere(3)
    a2, unreliable = second_fundamental_norm(m)
    assert not unreliable
    assert abs(np.median(a2.values) - 2.0) < 0.1


def test_catenoid_interior_curvature_small():
    m = catenoid(-1.0, 1.0, 32, 64)
    H = mean_curvature_vector(m).values
    interior = ~m.is_boundary_vertex()
    assert np.linalg.norm(H[interior], axis=1).max() < 5e-3


def test_area_gradient_matches_finite_difference():
    m = catenoid(-0.8, 0.8, 8, 12)
    g = area_gradient_raw(m)
    rng = np.random.default_rng(3)
    h = 1e-7
    for _ in range(4):
        X = rng.standard_normal(m.vertices.shape)
        ap = total_area(m.with_vertices(m.vertices + h * X))
        am = total_area(m.with_vertices(m.vertices - h * X))
        fd = (ap - am) / (2 * h)
        assert abs(np.einsum("ij,ij->", g, X) - fd) < 1e-6 * (1 + abs(fd))


def test_boundary_conormal_half_disk_radial():
    m = half_disk(1.0, 12, 24)
    eta = _conormals(m)
    arc = [i for i in np.flatnonzero(~np.isnan(eta[:, 0]))
           if abs(np.linalg.norm(m.vertices[i]) - 1.0) < 1e-9
           and abs(m.vertices[i][1]) > 1e-9]  # skip the two corner vertices
    radial = m.vertices[arc] / np.linalg.norm(m.vertices[arc], axis=1, keepdims=True)
    errs = [np.linalg.norm(eta[i] - r) for i, r in zip(arc, radial)]
    assert max(errs) < 1e-12


def test_strip_conormal_is_minus_x():
    m = strip_on_plane(8)
    eta = _conormals(m)
    edge = [i for i in np.flatnonzero(~np.isnan(eta[:, 0])) if m.vertices[i][0] < 1e-12
            and 1e-9 < m.vertices[i][1] < 1 - 1e-9]
    for i in edge:
        assert np.allclose(eta[i], [-1.0, 0.0, 0.0])


def test_refine_quadruples_faces_and_preserves_flat_area():
    m = grid_patch(4, 4)
    r = refine(m)
    assert len(r.faces) == 4 * len(m.faces)
    assert np.isclose(total_area(r), total_area(m))
    assert validate_mesh(r) == []


def test_refine_propagates_constrained_flags():
    m = strip_on_plane(4)
    r = refine(m)
    on_edge = np.abs(r.vertices[:, 0]) < 1e-12
    boundary = r.is_boundary_vertex()
    assert np.array_equal(r.constrained, on_edge & boundary)


def test_vertex_normals_unit_length():
    m = catenoid(-1.0, 1.0, 12, 24)
    n = vertex_normals(m).values
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0)


def test_obj_roundtrip(tmp_path):
    m = half_disk(1.0, 6, 12)
    path = tmp_path / "mesh.obj"
    write_obj(m, path)
    back = read_obj(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.faces, m.faces)
    assert np.array_equal(back.constrained, m.constrained)


def _assert_exact_roundtrip(m, path):
    write_obj(m, path)
    back = read_obj(path)
    assert back.vertices.tobytes() == m.vertices.tobytes()  # bitwise, -0.0 too
    assert np.array_equal(back.faces, m.faces)
    assert np.array_equal(back.constrained, m.constrained)


@pytest.mark.parametrize("name", sorted(_BUILTIN_SAMPLERS))
def test_obj_roundtrip_is_exact_for_builtin_meshes(tmp_path, name):
    _assert_exact_roundtrip(_BUILTIN_SAMPLERS[name](), tmp_path / "mesh.obj")


@settings(max_examples=50, deadline=None)
@given(arrays(float, (4, 3), elements=st.floats(allow_nan=False)))
@example(np.array([[-0.0, 0.1, 1 / 3], [1e-300, 5e-324, -5e-324],
                   [1.7976931348623157e308, -1e-300, 2.0 / 3], [0.0, -0.1, 1e22]]))
def test_obj_roundtrip_is_exact_for_any_coordinates(tmp_path_factory, verts):
    m = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3]], [True, False, True, False])
    _assert_exact_roundtrip(m, tmp_path_factory.mktemp("obj") / "mesh.obj")


def _per_line_obj(mesh):
    """The OBJ text as written one f-string per record."""
    lines = [f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in mesh.vertices]
    lines += [f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}" for f in mesh.faces]
    return "\n".join(lines) + "\n"


def test_write_obj_matches_per_line_golden_bytes(tmp_path):
    bumpy = catenoid(-1.0, 1.0, 6, 10)
    bumpy = bumpy.with_vertices(bumpy.vertices / 3.0 + 1e-7)
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    for m in (half_disk(1.0, 6, 12), bumpy, empty):
        write_obj(m, tmp_path / "mesh.obj", sidecar=False)
        assert (tmp_path / "mesh.obj").read_bytes() == _per_line_obj(m).encode()
    assert _per_line_obj(empty) == "\n"
    assert read_obj(tmp_path / "mesh.obj").n_vertices == 0


def test_read_obj_accepted_subset(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text(
        "# a comment\n"
        "o patch\n"
        "g group\n"
        "\n"
        "v 0 0 0\n"
        "v\t1\t0\t0\t1.0\n"  # tab separated, with a w coordinate
        "vn 0 0 1\n"
        "vt 0.5 0.5\n"
        "  v 0 1 0  \n"
        "v 1 1 0 0.5 0.5 0.5\n"  # with a vertex colour
        "f 1/1/1 2/2/2 3/3/3\n"
        "f\t2//1 4//1 3//1\n"
    )
    m = read_obj(path)
    assert np.array_equal(m.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert np.array_equal(m.faces, [[0, 1, 2], [1, 3, 2]])
    assert not m.constrained.any()


@pytest.mark.parametrize("faces", ["f 1 2 3 4\n", "f 1 2 3\nf 1 2 3 4\n"])
def test_read_obj_rejects_quads(tmp_path, faces):
    path = tmp_path / "mesh.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n" + faces)
    line = faces.count("\n") + 4
    with pytest.raises(ValueError, match=f"^mesh.obj:{line}: only triangle faces"):
        read_obj(path)


@pytest.mark.parametrize("record, reason", [
    ("v 0 0 abc", "could not convert 'abc'"),
    ("v 0 1", "a vertex needs 3 coordinates"),
    ("v", "a vertex needs 3 coordinates"),
    ("f 1 x/2/2 3", "could not convert 'x'"),
    ("f 1 2.0 3", "could not convert '2.0'"),
    ("v 1_0 0 0", "could not convert '1_0'"),
    ("v 1 2 # 3", "could not convert '#'"),
])
def test_read_obj_error_names_file_line(tmp_path, record, reason):
    # the bad record is line 12 of the file, whatever its row in its block
    path = tmp_path / "mesh.obj"
    path.write_text("# header\n\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
                    "vn 0 0 1\n# c\n\nv 1 1 0\nf 2 4 3\n" + record + "\nv 2 2 0\n")
    with pytest.raises(ValueError) as info:
        read_obj(path)
    assert str(info.value) == f"mesh.obj:12: {reason}"


def test_cotangent_laplacian_is_built_once_per_mesh():
    m = disk(1.0, 6, 18)
    L = cotangent_laplacian(m)
    assert cotangent_laplacian(m) is L
    assert not L.data.flags.writeable  # shared, so read-only
    moved = m.with_vertices(1.5 * m.vertices)
    assert cotangent_laplacian(moved) is not L
    assert np.allclose(cotangent_laplacian(moved).toarray(), L.toarray())  # scale-free
    fine = refine(m)
    assert cotangent_laplacian(fine).shape == (fine.n_vertices,) * 2


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6))
def test_grid_patch_area_gradient_fd_property(nx, ny, seed):
    m = grid_patch(nx, ny)
    rng = np.random.default_rng(seed)
    m = m.with_vertices(m.vertices + 0.03 * rng.standard_normal(m.vertices.shape))
    X = rng.standard_normal(m.vertices.shape)
    g = area_gradient_raw(m)
    h = 1e-7
    fd = (
        total_area(m.with_vertices(m.vertices + h * X))
        - total_area(m.with_vertices(m.vertices - h * X))
    ) / (2 * h)
    assert abs(np.einsum("ij,ij->", g, X) - fd) < 1e-5 * (1 + abs(fd))
