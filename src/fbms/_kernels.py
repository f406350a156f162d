"""Triangle/ball kernels behind the monotonicity formula.

The ball mass is exact: the ball cuts each triangle's plane in a disk, and the
triangle-disk area is the signed circle-polygon clip summed over the three
edges. The deficit is a midpoint quadrature over a level-synchronous
subdivision: triangles entirely inside the inner ball are dropped (balls are
convex, so the vertex test is exact), triangles provably beyond the outer
sphere are dropped, and the rest are split until their longest edge is below
QUAD_EDGE_REL * sigma.
"""

from __future__ import annotations

import numpy as np

QUAD_EDGE_REL = 0.02  # deficit leaf edge, relative to the inner radius
MAX_LEVELS = 40  # deficit subdivision depth; deeper leftovers become leaves
CROSSING_SLACK = 1e-12  # relative to the triangle's area


def _tri_arrays(a, b, c):
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    b = np.asarray(b, dtype=float).reshape(-1, 3)
    c = np.asarray(c, dtype=float).reshape(-1, 3)
    return a, b, c


def _areas(a, b, c):
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _longest_edge(a, b, c):
    return np.maximum.reduce(
        [
            np.linalg.norm(b - a, axis=1),
            np.linalg.norm(c - b, axis=1),
            np.linalg.norm(a - c, axis=1),
        ]
    )


def _split4(a, b, c, n):
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    na = np.concatenate([a, ab, ca, ab])
    nb = np.concatenate([ab, b, bc, bc])
    nc = np.concatenate([ca, bc, c, ca])
    return na, nb, nc, np.concatenate([n] * 4)


def mass_in_ball_tris(a, b, c, p, r):
    """(area inside the ball B(p, r), number of triangles the sphere cuts).

    Each triangle's plane meets the ball in a disk of radius sqrt(r^2 - h^2)
    about q, the foot of p. Each edge u -> v, split at the roots t1 <= t2 of
    |u + t (v - u) - q| = that radius clipped to [0, 1], adds a sector, a
    triangle with apex q and a sector. A triangle is cut when its clipped
    area lies strictly between 0 and its area, up to CROSSING_SLACK relative.
    """
    a, b, c = _tri_arrays(a, b, c)
    p = np.asarray(p, dtype=float)
    n = np.cross(b - a, c - a)
    twice = np.linalg.norm(n, axis=1)
    live = np.flatnonzero(twice > 0.0)  # degenerate triangles carry no area
    n = n[live] / twice[live, None]
    h = np.vecdot(p - a[live], n)
    rho2 = r * r - h * h
    cut = rho2 > 0.0
    live, n, h, rho2 = live[cut], n[cut], h[cut], rho2[cut]
    q = p - h[:, None] * n
    u = np.stack([a[live], b[live], c[live]]) - q  # (3, faces, 3), about q
    v = u[[1, 2, 0]]
    d = v - u
    dd = np.vecdot(d, d)
    ud = np.vecdot(u, d)
    s = np.sqrt(np.maximum(ud * ud - dd * (np.vecdot(u, u) - rho2), 0.0))
    t1 = np.clip((-ud - s) / dd, 0.0, 1.0)
    t2 = np.clip((-ud + s) / dd, 0.0, 1.0)
    # The far split point is measured back from v, so a clipped root gives u
    # or v exactly and a zero-angle sector; u + t2 d would leave a ~1e-20
    # vector of arbitrary angle when the base point is a mesh vertex.
    x1 = u + t1[..., None] * d
    x2 = v - (1.0 - t2)[..., None] * d

    def sector(x, y):
        return np.arctan2(np.vecdot(np.cross(x, y), n), np.vecdot(x, y))

    signed = (0.5 * (rho2 * (sector(u, x1) + sector(x2, v))
                     + np.vecdot(np.cross(x1, x2), n))).sum(axis=0)
    full = 0.5 * twice[live]
    clipped = np.clip(signed, 0.0, full)
    slack = CROSSING_SLACK * full
    crossing = int(np.count_nonzero((clipped > slack) & (clipped < full - slack)))
    return float(clipped.sum()), crossing


def deficit_sum_tris(a, b, c, normals, p, sigma, rho, lambda1, gamma):
    """Midpoint quadrature of the weighted normal-deficit integrand over the
    part of the triangle soup inside the annulus sigma < |x-p| < rho.

    `normals` are unit normals of the triangle planes (the 2-plane S); the
    integrand is exp(lambda1 r) |n . grad r|^2 / ((1 + gamma r) r^2).
    """
    a, b, c = _tri_arrays(a, b, c)
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    p = np.asarray(p, dtype=float)
    total = 0.0
    quad_edge = QUAD_EDGE_REL * sigma
    level = 0
    while len(a):
        da = np.linalg.norm(a - p, axis=1)
        db = np.linalg.norm(b - p, axis=1)
        dc = np.linalg.norm(c - p, axis=1)
        longest = _longest_edge(a, b, c)
        inside_inner = (da < sigma) & (db < sigma) & (dc < sigma)
        beyond_outer = np.minimum.reduce([da, db, dc]) - longest >= rho
        drop = inside_inner | beyond_outer
        leaf = ~drop & ((longest <= quad_edge) | (level >= MAX_LEVELS))
        if leaf.any():
            cen = (a[leaf] + b[leaf] + c[leaf]) / 3.0
            r = np.linalg.norm(cen - p, axis=1)
            ok = (r > sigma) & (r < rho)
            if ok.any():
                rr = r[ok]
                gr = (cen[ok] - p) / rr[:, None]
                perp2 = np.einsum("ij,ij->i", n[leaf][ok], gr) ** 2
                w = np.exp(lambda1 * rr) * perp2 / ((1.0 + gamma * rr) * rr**2)
                total += float((w * _areas(a[leaf][ok], b[leaf][ok], c[leaf][ok])).sum())
        split = ~drop & ~leaf
        if not split.any():
            break
        a, b, c, n = _split4(a[split], b[split], c[split], n[split])
        level += 1
    return total
