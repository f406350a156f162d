"""Triangle/ball kernels behind the monotonicity formula.

Both kernels work in each triangle's plane about the foot q of the base point
p, at signed distance h, where the sphere of radius R about p cuts the circle
of radius sqrt(R^2 - h^2). Each edge is split at its roots on those circles
(`_edge_roots`), and a triangle's integral is the signed sum over its edge
pieces. The ball mass is exact: a piece inside the circle adds the triangle
it spans with q, and one outside it a sector.

The deficit integrand is h^2 G(r) on a flat triangle, with
G(r) = exp(lambda1 r) / ((1 + gamma r) r^4), and r dr = s ds for the radius s
about q. So a piece adds the integral of Phi(clamp(r, lo, rho)) d theta, with
lo = max(|h|, sigma) and Phi(R) = h^2 integral_lo^R G(r) r dr: exactly
Phi(rho) d theta outside rho, nothing inside lo, and EDGE_POINTS-point
Gauss-Legendre in the edge parameter between, on parts short next to their
distance from the integrand's singularities.

Both kernels skip triangles from their vertex distances d_i to p and longest
edge L: min d_i - L bounds every point's distance to p from below, and
max d_i bounds it from above.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Chebyshev
from numpy.polynomial.legendre import leggauss

CROSSING_SLACK = 1e-12  # relative to the triangle's area
EDGE_POINTS = 8  # Gauss-Legendre points per part of an edge piece
PART_REL = 0.5  # longest part, relative to its distance to a singularity
MAX_PARTS = 64  # parts per edge piece
_GL_X, _GL_W = leggauss(EDGE_POINTS)


def _tri_arrays(*xs):
    """Each argument as float rows (n, 3); a point becomes one row."""
    return [np.asarray(x, dtype=float).reshape(-1, 3) for x in xs]


def _areas(a, b, c):
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _longest_edge(a, b, c):
    return np.maximum.reduce([np.linalg.norm(y - x, axis=1)
                              for x, y in ((a, b), (b, c), (c, a))])


def _vertex_distances(a, b, c, p):
    return np.stack([np.linalg.norm(x - p, axis=1) for x in (a, b, c)])


def _edges_about(q, a, b, c):
    """Edges u -> v of each triangle about q, and d = v - u: (3, faces, 3)."""
    u = np.stack([a, b, c]) - q
    v = u[[1, 2, 0]]
    return u, v, v - u


def _edge_roots(u, d, s2):
    """Parameters t1 <= t2 in [0, 1] where the edge u + t d crosses the circle
    |x|^2 = s2; a missed circle gives t1 = t2, and a point edge t1 = t2 = 0."""
    dd = np.vecdot(d, d)
    ud = np.vecdot(u, d)
    s = np.sqrt(np.maximum(ud * ud - dd * (np.vecdot(u, u) - s2), 0.0))
    t1 = np.divide(-ud - s, dd, out=np.zeros_like(dd), where=dd > 0.0)
    t2 = np.divide(-ud + s, dd, out=np.zeros_like(dd), where=dd > 0.0)
    return np.clip(t1, 0.0, 1.0), np.clip(t2, 0.0, 1.0)


def _gauss_parts(t0, t1, length, gap):
    """Splits each piece [t0, t1] of a parameter, `length` long, into parts
    no longer than PART_REL times `gap`, its distance from the integrand's
    nearest complex singularity (at most MAX_PARTS parts). Returns the piece
    of each part, its (parts, EDGE_POINTS) Gauss-Legendre nodes and its half
    width; a part adds half * (f(nodes) @ _GL_W)."""
    parts = np.ceil(length / np.maximum(PART_REL * gap, length / MAX_PARTS)).astype(int)
    j = np.repeat(np.arange(len(parts)), parts)
    rank = np.arange(len(j)) - np.repeat(np.cumsum(parts) - parts, parts)
    half = 0.5 * ((t1 - t0) / parts)[j]
    return j, (t0[j] + (2 * rank + 1) * half)[:, None] + half[:, None] * _GL_X, half


def _angle(x, y, n):
    """Signed angle from x to y about the unit normal n."""
    return np.arctan2(np.vecdot(np.cross(x, y), n), np.vecdot(x, y))


def mass_in_ball_tris(a, b, c, p, r):
    """(area inside the ball B(p, r), number of triangles the sphere cuts).

    A triangle with every vertex within r adds its area and one with
    min vertex distance - longest edge >= r adds nothing; only the rest are
    clipped. A clipped triangle is cut when its clipped area lies strictly
    between 0 and its area, up to CROSSING_SLACK relative.
    """
    a, b, c, p = _tri_arrays(a, b, c, p)
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
    u, v, d = _edges_about(p - h[:, None] * n, a[live], b[live], c[live])
    t1, t2 = _edge_roots(u, d, rho2)
    # The far split point is measured back from v, so a clipped root gives u
    # or v exactly and a zero-angle sector; u + t2 d would leave a ~1e-20
    # vector of arbitrary angle when the base point is a mesh vertex.
    x1, x2 = u + t1[..., None] * d, v - (1.0 - t2)[..., None] * d
    signed = (0.5 * (rho2 * (_angle(u, x1, n) + _angle(x2, v, n))
                     + np.vecdot(np.cross(x1, x2), n))).sum(axis=0)
    full = 0.5 * twice[live]
    clipped = np.clip(signed, 0.0, full)
    slack = CROSSING_SLACK * full
    crossing = int(np.count_nonzero((clipped > slack) & (clipped < full - slack)))
    return total + float(clipped.sum()), crossing


def _radial_antiderivative(sigma, rho, lambda1, gamma):
    """psi with psi' = exp(lambda1 r) / ((1 + gamma r) r^3) on [sigma, rho]:
    -1 / (2 r^2) when lambda1 = gamma = 0, else a Chebyshev series in log r,
    where the integrand times r is entire but for poles at imaginary distance
    pi, so the degree grows only with log(rho / sigma)."""
    if lambda1 == 0.0 and gamma == 0.0:
        return lambda r: -0.5 / (r * r)
    u0, u1 = np.log(sigma), np.log(rho)
    series = Chebyshev.interpolate(
        lambda u: np.exp(lambda1 * np.exp(u) - 2.0 * u) / (1.0 + gamma * np.exp(u)),
        24 + int(np.ceil(16.0 * (u1 - u0))), domain=[u0, u1]).integ()
    return lambda r: series(np.log(r))


def deficit_sum_tris(a, b, c, normals, p, sigma, rho, lambda1, gamma):
    """Integral of the weighted normal-deficit integrand over the part of the
    triangle soup inside the annulus sigma < |x - p| < rho.

    `normals` are unit normals of the triangle planes (the 2-plane S); the
    integrand is exp(lambda1 r) |n . grad r|^2 / ((1 + gamma r) r^2). Each
    triangle is clipped in polar coordinates about the foot of p (see the
    module docstring). One whose plane contains p, or that misses the ball
    B(p, rho), adds exactly 0, and none adds less than 0.
    """
    a, b, c, n, p = _tri_arrays(a, b, c, normals, p)
    dist = _vertex_distances(a, b, c, p)
    keep = (dist.max(axis=0) > sigma) & (dist.min(axis=0) - _longest_edge(a, b, c) < rho)
    a, b, c, n = a[keep], b[keep], c[keep], n[keep]
    # orient each normal with the triangle's winding, which signs the angles
    orient = np.sign(np.vecdot(np.cross(b - a, c - a), n))
    h = orient * np.vecdot(p - a, n)
    lo = np.maximum(np.abs(h), sigma)
    live = (h != 0.0) & (lo < rho)  # orient = 0 on a degenerate triangle
    if not live.any():
        return 0.0
    a, b, c, h, lo = a[live], b[live], c[live], h[live], lo[live]
    n, h2 = orient[live, None] * n[live], h * h
    psi = _radial_antiderivative(sigma, rho, lambda1, gamma)
    psi_lo = psi(lo)

    u, v, d = _edges_about(p - h[:, None] * n, a, b, c)
    hi1, hi2 = _edge_roots(u, d, rho * rho - h2)
    lo1, lo2 = _edge_roots(u, d, lo * lo - h2)
    x1, x2 = u + hi1[..., None] * d, v - (1.0 - hi2)[..., None] * d
    total = h2 * (psi(rho) - psi_lo) * (_angle(u, x1, n) + _angle(x2, v, n)).sum(axis=0)

    # annulus pieces [hi1, lo1] and [lo2, hi2], one piece when an edge misses
    # the inner circle; d theta = (u x d) . n / |x|^2 dt along x = u + t d
    miss = lo1 == lo2
    t0 = np.stack([hi1, np.where(miss, hi2, lo2)])
    t1 = np.stack([np.where(miss, hi2, lo1), hi2])
    k, e, i = np.nonzero(t1 > t0)
    t0, t1, ue, de = t0[k, e, i], t1[k, e, i], u[e, i], d[e, i]
    # parts no longer than PART_REL times their distance from the nearest
    # complex singularity: x = 0 (the pole of 1 / |x|^2) when lo > |h|, else
    # r = 0, where |x|^2 = -h^2
    dd = np.vecdot(de, de)
    x = ue + np.clip(-np.vecdot(ue, de) / dd, t0, t1)[:, None] * de
    gap = np.sqrt(np.vecdot(x, x) + np.where(lo[i] > np.abs(h[i]), 0.0, h2[i]))
    j, t, half = _gauss_parts(t0, t1, (t1 - t0) * np.sqrt(dd), gap)
    e, i = e[j], i[j]
    x = ue[j, None, :] + t[..., None] * de[j, None, :]
    s2 = np.vecdot(x, x)
    r = np.clip(np.sqrt(s2 + h2[i, None]), lo[i, None], rho)
    f = np.divide(psi(r) - psi_lo[i, None], s2, out=np.zeros_like(s2), where=s2 > 0.0)
    turn = np.vecdot(np.cross(u, d), n)
    total += h2 * np.bincount(i, turn[e, i] * half * (f @ _GL_W), minlength=len(h))
    # a triangle that misses the disk of radius rho in its plane has no
    # annulus; only rounding is left of its angle sum
    meets = (hi2 > hi1).any(axis=0) | (turn >= 0.0).all(axis=0)
    return float(np.maximum(total[meets], 0.0).sum())


def _segment_frames(a, b, p):
    """Per segment [a, b] of positive length: the arclengths s0 < s1 of a and
    b from the foot of p on its line, its length, and h^2, the squared
    distance from p to the line."""
    a, b, p = _tri_arrays(a, b, p)
    d = b - a
    length = np.sqrt(np.vecdot(d, d))
    keep = length > 0.0
    length = length[keep]
    u = d[keep] / length[:, None]
    w = a[keep] - p
    s0 = np.vecdot(w, u)
    foot = w - s0[:, None] * u
    return s0, s0 + length, length, np.vecdot(foot, foot)


def mass_in_ball_segments(a, b, p, r):
    """(length of the segments [a, b] inside the ball B(p, r), number of
    segments the sphere cuts, up to 1e-15 relative): the arclengths
    |s| < sqrt(r^2 - h^2) of each segment."""
    s0, s1, length, h2 = _segment_frames(a, b, p)
    outer = np.sqrt(np.maximum(r * r - h2, 0.0))
    inside = np.maximum(0.0, np.minimum(s1, outer) - np.maximum(s0, -outer))
    crossing = np.count_nonzero((inside > 0.0) & (inside < length - 1e-15 * length))
    return float(inside.sum()), int(crossing)


def deficit_sum_segments(a, b, p, sigma, rho, lambda1, gamma):
    """Integral of exp(lambda1 r) |component of grad r normal to the curve|^2
    / ((1 + gamma r) r) over the parts of the segments [a, b] inside the
    annulus sigma < |x - p| < rho: the k = 1 deficit.

    At arclength s from the foot of p on a segment's line, at distance h, the
    integrand is h^2 exp(lambda1 r) / ((1 + gamma r) r^3) with r^2 = h^2 + s^2.
    Each segment is split at its roots on the two spheres. A piece adds
    [s / r] between its ends when lambda1 = gamma = 0, and EDGE_POINTS-point
    Gauss-Legendre in s on parts otherwise, short next to the piece's distance
    from the singularities at s = +-ih. A segment on a line through p adds
    exactly 0.
    """
    s0, s1, _, h2 = _segment_frames(a, b, p)
    outer = np.sqrt(np.maximum(rho * rho - h2, 0.0))
    inner = np.sqrt(np.maximum(sigma * sigma - h2, 0.0))
    # the pieces s in [-outer, -inner] and [inner, outer] of each segment
    lo = np.concatenate([np.maximum(s0, -outer), np.maximum(s0, inner)])
    hi = np.concatenate([np.minimum(s1, -inner), np.minimum(s1, outer)])
    h2 = np.tile(h2, 2)
    live = (hi > lo) & (h2 > 0.0)
    lo, hi, h2 = lo[live], hi[live], h2[live]
    if lambda1 == 0.0 and gamma == 0.0:
        return float((hi / np.sqrt(h2 + hi * hi) - lo / np.sqrt(h2 + lo * lo)).sum())
    near = np.clip(0.0, lo, hi)
    j, s, half = _gauss_parts(lo, hi, hi - lo, np.sqrt(h2 + near * near))
    r = np.sqrt(h2[j, None] + s * s)
    f = np.exp(lambda1 * r) / ((1.0 + gamma * r) * r ** 3)
    return float((h2[j] * half * (f @ _GL_W)).sum())
