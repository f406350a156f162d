"""Analytic mesh samplers for the builtin scenarios and tests."""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh


def grid_patch(nx=8, ny=8, x_range=(0.0, 1.0), y_range=(0.0, 1.0), constrain=None):
    """Flat triangulated rectangle in {z = 0}.

    `constrain` is an optional predicate on (x, y) marking boundary vertices
    as constrained.
    """
    xs = np.linspace(*x_range, nx + 1)
    ys = np.linspace(*y_range, ny + 1)
    verts = np.array([[x, y, 0.0] for y in ys for x in xs])
    faces = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            faces.append((a, b, d))
            faces.append((a, d, c))
    mesh = TriangleMesh(verts, np.array(faces, dtype=np.int64))
    if constrain is not None:
        flags = np.zeros(len(verts), dtype=bool)
        for i in mesh.boundary_vertices():
            if constrain(verts[i, 0], verts[i, 1]):
                flags[i] = True
        mesh = TriangleMesh(verts, mesh.faces, flags)
    return mesh


def strip_on_plane(n=8):
    """Unit strip [0,1]^2 with the x=0 edge constrained (N = plane {x=0})."""
    return grid_patch(n, n, constrain=lambda x, y: x < 1e-12)


def halfplane_patch(n=32, x_max=2.0, y_half=2.0):
    """Piece of {x >= 0, z = 0} with the x=0 edge constrained."""
    return grid_patch(
        n, 2 * n, x_range=(0.0, x_max), y_range=(-y_half, y_half),
        constrain=lambda x, y: x < 1e-12,
    )


def disk(radius=1.0, n_radial=16, n_angular=64, constrain_boundary=True):
    """Flat disk in {z=0} centered at the origin; boundary on the circle."""
    verts = [(0.0, 0.0, 0.0)]
    rings = []
    for i in range(1, n_radial + 1):
        r = radius * i / n_radial
        ring = []
        for j in range(n_angular):
            th = 2 * np.pi * j / n_angular
            ring.append(len(verts))
            verts.append((r * np.cos(th), r * np.sin(th), 0.0))
        rings.append(ring)
    faces = []
    for j in range(n_angular):
        jn = (j + 1) % n_angular
        faces.append((0, rings[0][j], rings[0][jn]))
    for i in range(n_radial - 1):
        inner, outer = rings[i], rings[i + 1]
        for j in range(n_angular):
            jn = (j + 1) % n_angular
            faces.append((inner[j], outer[j], outer[jn]))
            faces.append((inner[j], outer[jn], inner[jn]))
    verts = np.array(verts)
    mesh = TriangleMesh(verts, np.array(faces, dtype=np.int64))
    if constrain_boundary:
        mesh = TriangleMesh(verts, mesh.faces, mesh.is_boundary_vertex())
    return mesh


def half_disk(radius=1.0, n_radial=16, n_angular=32):
    """Half disk {z=0, y>=0}; curved boundary vertices constrained."""
    verts = [(0.0, 0.0, 0.0)]
    rings = []
    for i in range(1, n_radial + 1):
        r = radius * i / n_radial
        ring = []
        for j in range(n_angular + 1):
            th = np.pi * j / n_angular
            ring.append(len(verts))
            verts.append((r * np.cos(th), r * np.sin(th), 0.0))
        rings.append(ring)
    faces = []
    for j in range(n_angular):
        faces.append((0, rings[0][j], rings[0][j + 1]))
    for i in range(n_radial - 1):
        inner, outer = rings[i], rings[i + 1]
        for j in range(n_angular):
            faces.append((inner[j], outer[j], outer[j + 1]))
            faces.append((inner[j], outer[j + 1], inner[j + 1]))
    verts = np.array(verts)
    flags = np.zeros(len(verts), dtype=bool)
    for k in rings[-1]:
        flags[k] = True  # the curved arc only
    return TriangleMesh(verts, np.array(faces, dtype=np.int64), flags)


def catenoid_scale_for_unit_sphere(t_max):
    """Scale putting the boundary circles of the catenoid on the unit sphere."""
    return 1.0 / np.sqrt(np.cosh(t_max) ** 2 + t_max**2)


def catenoid(t_min=-1.0, t_max=1.0, nt=32, ntheta=64, scale=1.0,
             constrain_boundary=True):
    """Catenoid patch scale*(cosh t cos th, cosh t sin th, t), t in [t_min, t_max]."""
    ts = np.linspace(t_min, t_max, nt + 1)
    verts = []
    for t in ts:
        for j in range(ntheta):
            th = 2 * np.pi * j / ntheta
            verts.append(
                (
                    scale * np.cosh(t) * np.cos(th),
                    scale * np.cosh(t) * np.sin(th),
                    scale * t,
                )
            )
    faces = []
    for i in range(nt):
        for j in range(ntheta):
            jn = (j + 1) % ntheta
            a = i * ntheta + j
            b = i * ntheta + jn
            c = (i + 1) * ntheta + j
            d = (i + 1) * ntheta + jn
            faces.append((a, b, d))
            faces.append((a, d, c))
    verts = np.array(verts)
    mesh = TriangleMesh(verts, np.array(faces, dtype=np.int64))
    if constrain_boundary:
        mesh = TriangleMesh(verts, mesh.faces, mesh.is_boundary_vertex())
    return mesh


CRITICAL_CATENOID_T0 = 1.1996786402577433  # root of t*tanh(t) = 1


def critical_catenoid(nt=64, ntheta=64):
    """The free boundary critical catenoid in the unit ball."""
    t0 = CRITICAL_CATENOID_T0
    return catenoid(-t0, t0, nt, ntheta, scale=catenoid_scale_for_unit_sphere(t0))


def half_catenoid(t_max=1.0, nt=16, ntheta=64, scale=1.0):
    """Catenoid half t in [0, t_max]; the t=0 circle is the constrained boundary."""
    mesh = catenoid(0.0, t_max, nt, ntheta, scale, constrain_boundary=False)
    flags = np.zeros(mesh.n_vertices, dtype=bool)
    flags[: ntheta] = True  # the waist circle lies on the reflection plane z=0
    return TriangleMesh(mesh.vertices, mesh.faces, flags)


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
        rim = flat.is_boundary_vertex()
        v[rim, 2] = 0.0
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
    from .mesh import refine

    mesh = TriangleMesh(verts, faces)
    for _ in range(subdivisions):
        mesh = refine(mesh)
        v = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        mesh = mesh.with_vertices(v)
    return mesh.with_vertices(mesh.vertices * radius)
