"""Triangle/ball kernels behind the monotonicity formula.

Both kernels do exact work only on triangles a sphere can cut; every other
triangle has a closed-form answer, decided from its vertex distances d_i to p
and its longest edge L. Every point of a triangle lies within L of each
vertex, so min d_i - L bounds its distance to p from below, and balls are
convex, so max d_i bounds it from above.

The ball mass is exact. A triangle with every vertex in the ball adds its
area, one with min d_i - L >= r adds nothing, and the rest are clipped: the
ball cuts each triangle's plane in a disk, and the triangle-disk area is the
signed circle-polygon clip summed over the three edges.

The deficit runs a level-synchronous subdivision. At each level, triangles
inside the inner ball or provably beyond the outer sphere are dropped;
triangles wholly inside the open annulus (min d_i - L > sigma and
max d_i < rho), where the integrand is smooth, are integrated with the
7-point degree-5 Dunavant rule and leave the loop once they are small on the
integrand's scale (L (1 + |lambda1| (min d_i - L)) <= min d_i - L); larger
ones are split first. The rest, which a sphere may cut, are split until their
longest edge is below QUAD_EDGE_REL * sigma and then count as midpoint
leaves when their centroid lies in the annulus.
"""

from __future__ import annotations

import numpy as np

QUAD_EDGE_REL = 0.02  # deficit leaf edge, relative to the inner radius
MAX_LEVELS = 40  # deficit subdivision depth; deeper leftovers become leaves
CROSSING_SLACK = 1e-12  # relative to the triangle's area

# Dunavant (1985) degree-5 rule: barycentric points and weights summing to 1.
# The centroid, then the orbits of (a, b, b) with a = 0.0597..., 0.7974...
_S15 = np.sqrt(15.0)
_A1, _B1 = (9.0 - 2.0 * _S15) / 21.0, (6.0 + _S15) / 21.0
_A2, _B2 = (9.0 + 2.0 * _S15) / 21.0, (6.0 - _S15) / 21.0
RULE_POINTS = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
    [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2],
])
RULE_WEIGHTS = np.array([0.225] + [(155.0 + _S15) / 1200.0] * 3
                        + [(155.0 - _S15) / 1200.0] * 3)


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


def _vertex_distances(a, b, c, p):
    return np.stack([np.linalg.norm(x - p, axis=1) for x in (a, b, c)])


def _integrand(x, n, p, lambda1, gamma):
    """exp(lambda1 r) |n . grad r|^2 / ((1 + gamma r) r^2) at points x."""
    d = x - p
    r = np.linalg.norm(d, axis=-1)
    perp2 = (np.vecdot(n, d) / r) ** 2
    return np.exp(lambda1 * r) * perp2 / ((1.0 + gamma * r) * r**2)


def mass_in_ball_tris(a, b, c, p, r):
    """(area inside the ball B(p, r), number of triangles the sphere cuts).

    A triangle with every vertex within r adds its area and one with
    min vertex distance - longest edge >= r adds nothing; only the rest are
    clipped. Each clipped triangle's plane meets the ball in a disk of radius
    sqrt(r^2 - h^2) about q, the foot of p. Each edge u -> v, split at the
    roots t1 <= t2 of |u + t (v - u) - q| = that radius clipped to [0, 1],
    adds a sector, a triangle with apex q and a sector. A clipped triangle is
    cut when its clipped area lies strictly between 0 and its area, up to
    CROSSING_SLACK relative.
    """
    a, b, c = _tri_arrays(a, b, c)
    p = np.asarray(p, dtype=float)
    dist = _vertex_distances(a, b, c, p)
    inside = dist.max(axis=0) <= r
    clip = ~inside & (dist.min(axis=0) - _longest_edge(a, b, c) < r)
    total = float(_areas(a[inside], b[inside], c[inside]).sum())
    a, b, c = a[clip], b[clip], c[clip]
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
    return total + float(clipped.sum()), crossing


def deficit_sum_tris(a, b, c, normals, p, sigma, rho, lambda1, gamma):
    """Quadrature of the weighted normal-deficit integrand over the part of
    the triangle soup inside the annulus sigma < |x-p| < rho.

    `normals` are unit normals of the triangle planes (the 2-plane S); the
    integrand is exp(lambda1 r) |n . grad r|^2 / ((1 + gamma r) r^2).
    Triangles wholly inside the open annulus and small next to their distance
    to p (longest edge * (1 + |lambda1| near) <= near, near being the lower
    bound min d_i - L) take the Dunavant rule (RULE_POINTS, RULE_WEIGHTS);
    larger ones are split first. Triangles a sphere may cut are split down to
    an edge of QUAD_EDGE_REL * sigma, and each such leaf adds its area times
    the integrand at its centroid when the centroid lies in the annulus.
    """
    a, b, c = _tri_arrays(a, b, c)
    n = np.asarray(normals, dtype=float).reshape(-1, 3)
    p = np.asarray(p, dtype=float)
    total = 0.0
    quad_edge = QUAD_EDGE_REL * sigma
    level = 0
    while len(a):
        dist = _vertex_distances(a, b, c, p)
        longest = _longest_edge(a, b, c)
        near = dist.min(axis=0) - longest  # below every point's distance
        far = dist.max(axis=0)  # above every point's distance
        inside_inner = far < sigma
        beyond_outer = near >= rho
        # the integrand's log changes at a rate up to about |lambda1| + 4/r,
        # so the rule waits until the triangle is small on that scale
        annulus = ((near > sigma) & (far < rho)
                   & ((1.0 + abs(lambda1) * near) * longest <= near))
        if annulus.any():
            x = np.tensordot(RULE_POINTS,
                             np.stack([a[annulus], b[annulus], c[annulus]]), 1)
            f = _integrand(x, n[annulus], p, lambda1, gamma)
            total += float((RULE_WEIGHTS @ f
                            * _areas(a[annulus], b[annulus], c[annulus])).sum())
        rest = ~(inside_inner | beyond_outer | annulus)
        leaf = rest & ((longest <= quad_edge) | (level >= MAX_LEVELS))
        if leaf.any():
            cen = (a[leaf] + b[leaf] + c[leaf]) / 3.0
            r = np.linalg.norm(cen - p, axis=1)
            ok = (r > sigma) & (r < rho)
            if ok.any():
                w = _integrand(cen[ok], n[leaf][ok], p, lambda1, gamma)
                total += float((w * _areas(a[leaf][ok], b[leaf][ok], c[leaf][ok])).sum())
        split = rest & ~leaf
        if not split.any():
            break
        a, b, c, n = _split4(a[split], b[split], c[split], n[split])
        level += 1
    return total
