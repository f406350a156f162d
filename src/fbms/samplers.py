"""Analytic mesh samplers for the builtin scenarios and tests.

Every sampler but `icosphere` triangulates an index grid with `_grid_faces`:
the rectangle and the catenoid directly, the two disks through
`_polar_mesh`, whose grid runs from the center to the rim.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh, refine


def _grid_faces(idx):
    """Triangles (a, b, d) and (a, d, c) of each quad a = idx[i, j],
    b = idx[i, j + 1], c = idx[i + 1, j], d = idx[i + 1, j + 1] of a 2-D
    index grid, as an (i, j, 2, 3) array."""
    a, b, c, d = idx[:-1, :-1], idx[:-1, 1:], idx[1:, :-1], idx[1:, 1:]
    return np.stack([np.stack([a, b, d], axis=-1), np.stack([a, d, c], axis=-1)],
                    axis=-2)


def grid_patch(nx=8, ny=8, x_range=(0.0, 1.0), y_range=(0.0, 1.0), constrain=None):
    """Flat triangulated rectangle in {z = 0}.

    `constrain` is an optional predicate on arrays (x, y), marking boundary
    vertices as constrained.
    """
    x, y = np.meshgrid(np.linspace(*x_range, nx + 1), np.linspace(*y_range, ny + 1))
    verts = np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)
    faces = _grid_faces(np.arange(x.size).reshape(x.shape)).reshape(-1, 3)
    flags = np.zeros(len(verts), dtype=bool)
    if constrain is not None:
        rim = TriangleMesh(verts, faces).is_boundary_vertex()
        flags[rim] = constrain(verts[rim, 0], verts[rim, 1])
    return TriangleMesh(verts, faces, flags)


def strip_on_plane(n=8):
    """Unit strip [0,1]^2 with the x=0 edge constrained (N = plane {x=0})."""
    return grid_patch(n, n, constrain=lambda x, y: x < 1e-12)


def halfplane_patch(n=32, x_max=2.0, y_half=2.0):
    """Piece of {x >= 0, z = 0} with the x=0 edge constrained."""
    return grid_patch(
        n, 2 * n, x_range=(0.0, x_max), y_range=(-y_half, y_half),
        constrain=lambda x, y: x < 1e-12,
    )


def _polar_mesh(radius, n_radial, angles, closed):
    """Disk sector in {z = 0}: the center, then n_radial rings of points at
    `angles`, the last one the constrained rim on the circle of the given
    radius. The first ring is fanned about the center and each ring joined to
    the next; `closed` also joins each ring's last point to its first."""
    r = radius * np.arange(1, n_radial + 1) / n_radial
    x, y = r[:, None] * np.cos(angles), r[:, None] * np.sin(angles)
    verts = np.concatenate([np.zeros((1, 3)),
                            np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)])
    # grid rows: the center, repeated, then the rings
    idx = np.concatenate([np.zeros((1, len(angles)), dtype=np.int64),
                          np.arange(1, len(verts)).reshape(n_radial, -1)])
    if closed:
        idx = np.hstack([idx, idx[:, :1]])
    # faces ring by ring; of each quad at the center only (a, b, d) has area
    quads = _grid_faces(idx.T).swapaxes(0, 1)
    faces = np.concatenate([quads[0, :, 0], quads[1:].reshape(-1, 3)])
    rim = np.zeros(len(verts), dtype=bool)
    rim[idx[-1]] = True
    return TriangleMesh(verts, faces, rim)


def disk(radius=1.0, n_radial=16, n_angular=64):
    """Flat disk in {z=0} centered at the origin; boundary on the circle."""
    return _polar_mesh(radius, n_radial, 2 * np.pi * np.arange(n_angular) / n_angular,
                       closed=True)


def half_disk(radius=1.0, n_radial=16, n_angular=32):
    """Half disk {z=0, y>=0}; curved boundary vertices constrained."""
    return _polar_mesh(radius, n_radial, np.pi * np.arange(n_angular + 1) / n_angular,
                       closed=False)


def catenoid_scale_for_unit_sphere(t_max):
    """Scale putting the boundary circles of the catenoid on the unit sphere."""
    return 1.0 / np.sqrt(np.cosh(t_max) ** 2 + t_max**2)


def catenoid(t_min=-1.0, t_max=1.0, nt=32, ntheta=64, scale=1.0):
    """Catenoid patch scale*(cosh t cos th, cosh t sin th, t), t in [t_min, t_max],
    with both boundary circles constrained."""
    ts = np.linspace(t_min, t_max, nt + 1)
    th = 2 * np.pi * np.arange(ntheta) / ntheta
    rho = scale * np.cosh(ts)[:, None]
    verts = np.stack([(rho * np.cos(th)).ravel(), (rho * np.sin(th)).ravel(),
                      np.repeat(scale * ts, ntheta)], axis=1)
    idx = np.arange(len(verts)).reshape(nt + 1, ntheta)
    faces = _grid_faces(np.hstack([idx, idx[:, :1]])).reshape(-1, 3)
    rim = np.zeros(len(verts), dtype=bool)
    rim[idx[[0, -1]]] = True
    return TriangleMesh(verts, faces, rim)


CRITICAL_CATENOID_T0 = 1.1996786402577433  # root of t*tanh(t) = 1


def critical_catenoid(nt=64, ntheta=64):
    """The free boundary critical catenoid in the unit ball."""
    t0 = CRITICAL_CATENOID_T0
    return catenoid(-t0, t0, nt, ntheta, scale=catenoid_scale_for_unit_sphere(t0))


def half_catenoid(t_max=1.0, nt=16, ntheta=64, scale=1.0):
    """Catenoid half t in [0, t_max]; the t=0 circle is the constrained boundary."""
    mesh = catenoid(0.0, t_max, nt, ntheta, scale)
    # the waist circle lies on the reflection plane z=0
    return TriangleMesh(mesh.vertices, mesh.faces, np.arange(mesh.n_vertices) < ntheta)


def spherical_cap_graph(bulge=0.2, n_radial=16, n_angular=64):
    """Spherical cap over the unit disk: z(r) with apex height `bulge`, rim at z=0.

    Rim vertices lie on the unit circle (hence on the unit sphere) and are
    constrained.
    """
    flat = disk(1.0, n_radial, n_angular)
    v = flat.vertices.copy()
    if bulge != 0.0:
        rho = (1.0 + bulge**2) / (2.0 * abs(bulge))  # cap sphere radius
        z0 = np.sign(bulge) * (abs(bulge) - rho)
        r2 = v[:, 0] ** 2 + v[:, 1] ** 2
        v[:, 2] = z0 + np.sign(bulge) * np.sqrt(np.maximum(rho**2 - r2, 0.0))
        v[flat.constrained, 2] = 0.0  # the rim
    return TriangleMesh(v, flat.faces, flat.constrained)


def icosphere(subdivisions=3, radius=1.0):
    """Closed sphere mesh from a subdivided icosahedron."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    mesh = TriangleMesh(verts, faces)
    for _ in range(subdivisions):
        mesh = refine(mesh)
        v = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        mesh = mesh.with_vertices(v)
    return mesh.with_vertices(mesh.vertices * radius)
