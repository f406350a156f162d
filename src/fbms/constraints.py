"""Analytic constraint hypersurfaces as level sets, with their projections.

Each primitive supplies phi, grad phi, Hess phi and the nearest-point
projection in closed form, and its reach R0: every point nearer to N than R0
has a unique nearest point on N, and kappa = 1/R0 is its turning bound. The
reach bounds the projection, the Fermi charts and the monotonicity radii.
"""

from __future__ import annotations

import numbers

import numpy as np


class ProjectionError(RuntimeError):
    pass


_OUTSIDE = "outside tubular neighborhood"


def _rows_where(why, feet, x, reach=np.inf):
    """`feet` on the rows of x whose `why` is ""; a row fails with its `why`, or
    as outside where its foot lies beyond `reach`. Returns (feet, why)."""
    p, why = np.full_like(x, np.nan), why.astype(object)
    ok = why == ""
    p[ok] = feet(x[ok])
    far = np.linalg.norm(x - p, axis=1) > reach * (1 + 1e-9)
    why[far], p[far] = _OUTSIDE, np.nan
    return p, why


class LevelSetConstraint:
    """Base class; subclasses define phi/grad/hess on batched points (..., 3).
    The region {phi < 0} is the side of N the surface lies on."""

    def phi(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def reach(self):
        """R0: the reach of N, exact or a lower bound; np.inf for a plane."""
        raise NotImplementedError

    # -- nearest-point projection -------------------------------------------

    def project(self, x):
        """Nearest point xi(x) on N, of a point or of each row of (n, 3)."""
        x = np.asarray(x, dtype=float)
        p, why = self._project_rows(x.reshape(-1, 3))
        failed = why[why != ""]
        if failed.size:
            raise ProjectionError(failed[0])
        return p.reshape(x.shape)

    def _project_rows(self, x):
        """Feet of the rows of x (n, 3) and why each row failed ("" where it
        projected); a failed row's foot is NaN and the other rows go on. Each
        primitive supplies its own, in closed form."""
        raise NotImplementedError

    # -- pointwise geometry --------------------------------------------------

    def unit_normal(self, p):
        g = self.grad(np.asarray(p, dtype=float))
        n = np.linalg.norm(g, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise ProjectionError("gradient vanishes")
        return g / n

    def check_on(self, p):
        """Raises ValueError unless the point p, or each row of p, is on N."""
        p = np.asarray(p, dtype=float).reshape(-1, 3)
        on = np.abs(self.phi(p)) <= 1e-10 * (1 + np.linalg.norm(p, axis=1))
        if not (on.all() and np.isfinite(p).all()):
            raise ValueError("point is not on the constraint surface")

    def zeta(self, base, x):
        """zeta_base(x) = -nu(xi(x)) (xi(x) - base); batched in x."""
        xi = self.project(x)
        n = self.unit_normal(xi)
        return -np.vecdot(n, xi - np.asarray(base, dtype=float))[..., None] * n

    def normal_second_form(self, p, v):
        """A^N(v, v) for unit tangent v at p on N, or for each row of (n, 3)
        arrays p and v; convex inside => positive."""
        single = np.ndim(p) == 1
        p, v = (np.asarray(x, dtype=float).reshape(-1, 3) for x in (p, v))
        self.check_on(p)
        if np.any(np.abs(np.vecdot(v, self.unit_normal(p))) > 1e-8):
            raise ValueError("direction is not tangent to the constraint")
        gn = np.linalg.norm(self.grad(p), axis=1)
        vals = np.einsum("ni,nij,nj->n", v, self.hess(p), v) / gn
        return float(vals[0]) if single else vals

    # -- sampling ------------------------------------------------------------

    def sample_on_surface(self, center, radius, count, rng):
        """Seeded points on N inside ball(center, radius), via projection."""
        out = []
        center = np.asarray(center, dtype=float)
        attempts = 0
        while len(out) < count and attempts < 200:
            attempts += 1
            u = rng.normal(size=(4 * count, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = radius * rng.random(size=(4 * count, 1)) ** (1.0 / 3.0)
            pts = center + u * r
            proj, why = self._project_rows(pts)
            proj = proj[why == ""]
            keep = np.linalg.norm(proj - center, axis=1) <= radius
            out.extend(proj[keep])
        if not out:
            raise ValueError("no surface samples in region")
        return np.array(out[:count])


def estimate_kappa(constraint, center, radius, sample_count=10000, seed=0):
    """Sampled lower bound for the turning bound kappa = 1/R0 of N, an
    oracle for the declared reach().

    Evaluates 2 |nu(x)(y-x)| / |y-x|^2 over seeded point pairs on N inside
    ball(center, radius), whose sup over all pairs is 1/R0 (Federer); returns
    (kappa, witness), the sampled sup and its maximizing pair.
    """
    if sample_count < 100:
        raise ValueError("sample_count must be >= 100")
    rng = np.random.default_rng(seed)
    pts = constraint.sample_on_surface(center, radius, 2 * sample_count, rng)
    x = pts[: sample_count]
    y = pts[sample_count : 2 * sample_count]
    m = min(len(x), len(y))
    x, y = x[:m], y[:m]
    n = constraint.unit_normal(x)
    d = y - x
    d2 = np.einsum("ij,ij->i", d, d)
    ok = d2 > (1e-8 * radius) ** 2
    ratio = np.zeros(m)
    ratio[ok] = 2.0 * np.abs(np.einsum("ij,ij->i", n[ok], d[ok])) / d2[ok]
    # sampling error dominates far above float noise; rounding keeps exact
    # constants (plane 0, sphere 1/R) from drifting by roundoff
    k = float(np.round(ratio.max(initial=0.0), 9))
    i = int(np.argmax(ratio))
    return k, (tuple(x[i]), tuple(y[i]))


# -- primitives ---------------------------------------------------------------
# Each constructor rejects a degenerate surface with ValueError.


def _is_number(x):
    """Whether x is a real number; float() also reads a string or a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _vector(name, value):
    v = np.asarray(value, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all() or not all(map(_is_number, value)):
        raise ValueError(f"{name} must be a finite 3-vector")
    return v


def _length(name, value):
    if not _is_number(value):
        raise TypeError(f"{name} must be a number")
    x = float(value)
    if not 0.0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return x


class Plane(LevelSetConstraint):
    def __init__(self, point, normal):
        self.point = _vector("point", point)
        n = _vector("normal", normal)
        if not n.any():
            raise ValueError("normal must be nonzero")
        self.normal = n / np.linalg.norm(n)

    def phi(self, x):
        return (np.asarray(x, dtype=float) - self.point) @ self.normal

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.normal, x.shape).copy()

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3))

    def reach(self):
        return np.inf

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x - np.multiply.outer(self.phi(x), self.normal)

    def _project_rows(self, x):
        return self.project(x), np.full(len(x), "", dtype=object)


class Sphere(LevelSetConstraint):
    def __init__(self, center, radius):
        self.center = _vector("center", center)
        self.radius = _length("radius", radius)

    def phi(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return np.einsum("...i,...i->...", d, d) - self.radius**2

    def grad(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.center)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(2.0 * np.eye(3), x.shape[:-1] + (3, 3)).copy()

    def reach(self):
        return self.radius

    def project(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        r = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(r < 1e-12 * self.radius):
            raise ProjectionError(_OUTSIDE)
        return self.center + self.radius * d / r

    def _project_rows(self, x):
        # the centre is equally near every point of the sphere
        off_center = np.linalg.norm(x - self.center, axis=1) >= 1e-12 * self.radius
        return _rows_where(np.where(off_center, "", _OUTSIDE), self.project, x)


class Ellipsoid(LevelSetConstraint):
    def __init__(self, center, semi_axes):
        self.center = _vector("center", center)
        self.semi_axes = _vector("semi_axes", semi_axes)
        if not (self.semi_axes > 0).all():
            raise ValueError("semi_axes must be positive")

    def phi(self, x):
        d = (np.asarray(x, dtype=float) - self.center) / self.semi_axes
        return np.einsum("...i,...i->...", d, d) - 1.0

    def grad(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return 2.0 * d / self.semi_axes**2

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        H = np.diag(2.0 / self.semi_axes**2)
        return np.broadcast_to(H, x.shape[:-1] + (3, 3)).copy()

    def reach(self):
        # the smallest principal radius of curvature, at the ends of the
        # longest axis (Blaschke's rolling theorem for convex surfaces)
        a = self.semi_axes
        return float(a.min() ** 2 / a.max())

    def _project_rows(self, x):
        # the foot is a^2 d / (a^2 + t), d = x - center, where t is the root
        # right of -min a^2 of f(t) = |a d / (a^2 + t)|^2 - 1, which falls
        # there. Where d has no shortest-axis part, f(-min a^2) is finite: at
        # the centre and deep in that principal plane it is <= 0, there is no
        # root, and the point is equally near two or more points of N
        a, a2 = self.semi_axes, self.semi_axes**2
        short = a2 == a2.min()
        d = x - self.center
        rest = a[~short] * d[:, ~short] / (a2[~short] - a2.min())
        root = (d[:, short] != 0).any(axis=1) | (np.einsum("ij,ij->i", rest, rest) > 1.0)
        return _rows_where(np.where(root, "", _OUTSIDE), self._feet, x, self.reach())

    def _feet(self, x):
        """Feet of rows with a root, halving its bracket (-min a^2, |a d| - min a^2]
        until it stops shrinking, or 100 times (a root 0, on N, takes all 100)."""
        a2, d = self.semi_axes**2, x - self.center
        ad = self.semi_axes * d
        lo = np.full(len(x), -a2.min())
        hi = np.linalg.norm(ad, axis=1) - a2.min()
        for _ in range(100):
            t = 0.5 * (lo + hi)
            inside = (lo < t) & (t < hi)
            if not inside.any():
                break
            t = np.where(inside, t, hi)  # a^2 + t > 0 on every row
            q = ad / (a2 + t[:, None])
            above = np.einsum("ij,ij->i", q, q) > 1.0
            lo, hi = np.where(above, t, lo), np.where(above, hi, t)
        return self.center + a2 * d / (a2 + hi[:, None])


class Torus(LevelSetConstraint):
    """Torus about the z-axis through `center`."""

    def __init__(self, center, major_radius, minor_radius):
        self.center = _vector("center", center)
        self.R = _length("major_radius", major_radius)
        self.r = _length("minor_radius", minor_radius)
        if self.r >= self.R:
            raise ValueError("minor_radius must be below major_radius "
                             "(the torus would cross itself)")

    def phi(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.hypot(d[..., 0], d[..., 1])
        return (s - self.R) ** 2 + d[..., 2] ** 2 - self.r**2

    def grad(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.maximum(np.hypot(d[..., 0], d[..., 1]), 1e-300)
        g = 2.0 * d
        g[..., :2] *= (1.0 - self.R / s)[..., None]
        return g

    def hess(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.maximum(np.hypot(d[..., 0], d[..., 1]), 1e-300)
        H = np.zeros(d.shape[:-1] + (3, 3))
        # d/dxj of 2 (s - R) xi / s
        f = 2.0 * (1.0 - self.R / s)
        fp = 2.0 * self.R / s**3  # derivative factor of f wrt s, divided by s
        H[..., :2, :2] = (fp[..., None, None] * d[..., :2, None] * d[..., None, :2]
                          + f[..., None, None] * np.eye(2))
        H[..., 2, 2] = 2.0
        return H

    def reach(self):
        # the tube radius, or across the hole the distance to the axis
        return min(self.r, self.R - self.r)

    def _project_rows(self, x):
        # the foot is the point of the tube circle nearest to x in its
        # meridian half-plane: the axis has no such half-plane, and a point
        # of the core circle is equally near its whole tube circle
        d = x - self.center
        s = np.hypot(d[:, 0], d[:, 1])
        tol = 1e-12 * (1.0 + np.linalg.norm(d, axis=1))
        off_axis, off_core = s > tol, np.hypot(s - self.R, d[:, 2]) > tol
        why = np.where(off_axis, np.where(off_core, "", _OUTSIDE),
                       "query point on the torus axis")
        return _rows_where(why, self._feet, x, self.reach())

    def _feet(self, x):
        d = x - self.center
        s = np.hypot(d[:, 0], d[:, 1])
        w = np.column_stack([s - self.R, d[:, 2]])  # from the core circle, in the half-plane
        w *= self.r / np.linalg.norm(w, axis=1, keepdims=True)
        radial = (self.R + w[:, :1]) / s[:, None]
        return self.center + np.column_stack([radial * d[:, :2], w[:, 1]])


_PRIMITIVES = {"plane": Plane, "sphere": Sphere, "ellipsoid": Ellipsoid,
               "torus": Torus}


def constraint_from_spec(spec: dict) -> LevelSetConstraint:
    """Builds a constraint from its scenario JSON record: `type` names the
    primitive and every other key is an argument of its constructor."""
    args = dict(spec)
    kind = args.pop("type")
    if kind not in _PRIMITIVES:
        raise ValueError(f"unknown constraint type {kind!r}")
    return _PRIMITIVES[kind](**args)
