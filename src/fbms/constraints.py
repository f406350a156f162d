"""Analytic constraint hypersurfaces as level sets, with the projection toolkit.

Each primitive supplies phi, grad phi and Hess phi in closed form, declares a
tubular band width inside which the nearest-point projection is trustworthy,
and says which side of {phi = 0} counts as "inside" (used for the sign of the
normal second fundamental form: the unit ball boundary gives +1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ProjectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class TurningBound:
    """Sampled lower estimate of the global turning bound of N."""

    kappa: float
    radius_R0: float
    sample_count: int
    max_witness: tuple

    def __post_init__(self):
        if self.kappa > 0 and not abs(self.radius_R0 * self.kappa - 1.0) < 1e-9:
            raise ValueError("radius_R0 must equal 1 / kappa")


class LevelSetConstraint:
    """Base class; subclasses define phi/grad/hess on batched points (..., 3)."""

    inside = "negative_phi"  # which sign of phi is the inside region
    analytic_kappa = None  # exact turning bound when known

    def phi(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError

    def band(self):
        """Half-width of the declared tubular neighborhood of {phi=0}."""
        raise NotImplementedError

    def radius_R0(self):
        k = self.analytic_kappa
        if k is None:
            raise ValueError("no analytic turning bound; use estimate_kappa")
        return np.inf if k == 0 else 1.0 / k

    # -- nearest-point projection -------------------------------------------

    def project(self, x):
        """Nearest point xi(x) on N; damped Newton on the Lagrange system."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._project_batch(x[None, :])[0]
        return self._project_batch(x)

    def _project_batch(self, x):
        scale = 1.0 + np.linalg.norm(x, axis=1)
        tol = 1e-12 * scale
        g = self.grad(x)
        g2 = np.einsum("ij,ij->i", g, g)
        if np.any(g2 < 1e-24):
            raise ProjectionError("gradient vanishes near query point")
        p = x - (self.phi(x) / g2)[:, None] * g
        gp = self.grad(p)
        lam = np.einsum("ij,ij->i", x - p, gp) / np.einsum("ij,ij->i", gp, gp)

        for _ in range(50):
            gp = self.grad(p)
            Hp = self.hess(p)
            F = np.concatenate(
                [p + lam[:, None] * gp - x, self.phi(p)[:, None]], axis=1
            )
            res = np.linalg.norm(F, axis=1)
            if np.all(res <= tol):
                break
            J = np.zeros((len(p), 4, 4))
            J[:, :3, :3] = np.eye(3) + lam[:, None, None] * Hp
            J[:, :3, 3] = gp
            J[:, 3, :3] = gp
            try:
                step = np.linalg.solve(J, F[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise ProjectionError("outside tubular neighborhood")
            # damped update: halve any step that does not reduce the residual
            t = np.ones(len(p))
            for _ in range(20):
                p_new = p - t[:, None] * step[:, :3]
                lam_new = lam - t * step[:, 3]
                F_new = np.concatenate(
                    [
                        p_new + lam_new[:, None] * self.grad(p_new) - x,
                        self.phi(p_new)[:, None],
                    ],
                    axis=1,
                )
                worse = np.linalg.norm(F_new, axis=1) > res
                if not np.any(worse & (res > tol)):
                    break
                t[worse] *= 0.5
            p, lam = p_new, lam_new
        else:
            raise ProjectionError("outside tubular neighborhood")
        if np.any(np.linalg.norm(x - p, axis=1) > self.band() * (1 + 1e-9)):
            raise ProjectionError("outside tubular neighborhood")
        return p

    def distance(self, x):
        """rho(x) = |x - xi(x)| >= 0."""
        x = np.asarray(x, dtype=float)
        xi = self.project(x)
        return np.linalg.norm(x - xi, axis=-1)

    # -- pointwise geometry --------------------------------------------------

    def unit_normal(self, p):
        g = self.grad(np.asarray(p, dtype=float))
        n = np.linalg.norm(g, axis=-1, keepdims=True)
        if np.any(n < 1e-12):
            raise ProjectionError("gradient vanishes")
        return g / n

    def projectors(self, p):
        """(tau, nu) orthogonal projectors onto T_pN and its complement."""
        p = np.asarray(p, dtype=float)
        if abs(float(self.phi(p[None, :])[0])) > 1e-10 * (1 + np.linalg.norm(p)):
            raise ValueError("point is not on the constraint surface")
        n = self.unit_normal(p)
        nu = np.outer(n, n)
        tau = np.eye(3) - nu
        return tau, nu

    def zeta(self, base, x):
        """zeta_base(x) = -nu(xi(x)) (xi(x) - base); batched in x."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xi = self.project(x if not single else x[None, :])
        n = self.unit_normal(xi)
        d = xi - np.asarray(base, dtype=float)
        z = -np.einsum("ij,ij->i", n, d)[:, None] * n
        return z[0] if single else z

    def normal_second_form(self, p, v):
        """A^N(v, v) for unit tangent v at p on N, or for each row of (n, 3)
        arrays p and v; convex inside => positive."""
        single = np.ndim(p) == 1
        p, v = (np.asarray(x, dtype=float).reshape(-1, 3) for x in (p, v))
        if np.any(np.abs(self.phi(p)) > 1e-10 * (1 + np.linalg.norm(p, axis=1))):
            raise ValueError("point is not on the constraint surface")
        g = self.grad(p)
        gn = np.linalg.norm(g, axis=1)
        if np.any(gn < 1e-12):
            raise ProjectionError("gradient vanishes")
        tang = v - (np.vecdot(v, g) / gn**2)[:, None] * g
        if np.any(np.linalg.norm(tang - v, axis=1) > 1e-8):
            raise ValueError("direction is not tangent to the constraint")
        sign = 1.0 if self.inside == "negative_phi" else -1.0
        vals = sign * np.einsum("ni,nij,nj->n", v, self.hess(p), v) / gn
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
            try:
                proj = self._project_batch(pts)
            except ProjectionError:
                good = []
                for q in pts:
                    try:
                        proj_q = self.project(q)
                    except ProjectionError:
                        continue
                    good.append(proj_q)
                proj = np.array(good).reshape(-1, 3)
            if len(proj):
                keep = np.linalg.norm(proj - center, axis=1) <= radius
                out.extend(proj[keep])
        if not out:
            raise ValueError("no surface samples in region")
        return np.array(out[:count])


def estimate_kappa(constraint, center, radius, sample_count=10000, seed=0):
    """Sampled lower bound for the turning constant kappa of N.

    Evaluates 2 |nu(x)(y-x)| / |y-x|^2 over seeded point pairs on N inside
    ball(center, radius); returns the sup with the maximizing witness pair.
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
    if k < 1e-12:
        k = 0.0
    i = int(np.argmax(ratio))
    witness = (tuple(x[i]), tuple(y[i]))
    return TurningBound(
        kappa=k,
        radius_R0=np.inf if k == 0 else 1.0 / k,
        sample_count=m,
        max_witness=witness,
    )


# -- primitives ---------------------------------------------------------------


class Plane(LevelSetConstraint):
    def __init__(self, point, normal, inside="negative_phi"):
        self.point = np.asarray(point, dtype=float)
        n = np.asarray(normal, dtype=float)
        self.normal = n / np.linalg.norm(n)
        self.inside = inside

    analytic_kappa = 0.0

    def phi(self, x):
        return (np.asarray(x, dtype=float) - self.point) @ self.normal

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.normal, x.shape).copy()

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3, 3))

    def band(self):
        return np.inf

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x - np.multiply.outer(self.phi(x), self.normal)

    def _project_batch(self, x):
        return self.project(x)


class Sphere(LevelSetConstraint):
    def __init__(self, center, radius, inside="negative_phi"):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.inside = inside

    @property
    def analytic_kappa(self):
        return 1.0 / self.radius

    def phi(self, x):
        d = np.asarray(x, dtype=float) - self.center
        return np.einsum("...i,...i->...", d, d) - self.radius**2

    def grad(self, x):
        return 2.0 * (np.asarray(x, dtype=float) - self.center)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(2.0 * np.eye(3), x.shape[:-1] + (3, 3)).copy()

    def band(self):
        return self.radius

    def project(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        r = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(r < 1e-12 * self.radius):
            raise ProjectionError("outside tubular neighborhood")
        return self.center + self.radius * d / r

    def _project_batch(self, x):
        return self.project(x)


class Ellipsoid(LevelSetConstraint):
    def __init__(self, center, semi_axes, inside="negative_phi"):
        self.center = np.asarray(center, dtype=float)
        self.semi_axes = np.asarray(semi_axes, dtype=float)
        self.inside = inside

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

    def band(self):
        # conservative: smallest principal radius of curvature
        a = self.semi_axes
        return float(a.min() ** 2 / a.max())


class Torus(LevelSetConstraint):
    """Torus about the z-axis through `center`."""

    def __init__(self, center, major_radius, minor_radius, inside="negative_phi"):
        self.center = np.asarray(center, dtype=float)
        self.R = float(major_radius)
        self.r = float(minor_radius)
        self.inside = inside

    def phi(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
        return (s - self.R) ** 2 + d[..., 2] ** 2 - self.r**2

    def grad(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
        s = np.maximum(s, 1e-300)
        g = np.empty_like(d)
        f = 2.0 * (s - self.R) / s
        g[..., 0] = f * d[..., 0]
        g[..., 1] = f * d[..., 1]
        g[..., 2] = 2.0 * d[..., 2]
        return g

    def hess(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2)
        s = np.maximum(s, 1e-300)
        H = np.zeros(d.shape[:-1] + (3, 3))
        # d/dxj of 2 (s - R) xi / s
        f = 2.0 * (1.0 - self.R / s)
        fp = 2.0 * self.R / s**3  # derivative factor of f wrt s, divided by s
        for i in range(2):
            for j in range(2):
                H[..., i, j] = fp * d[..., i] * d[..., j]
                if i == j:
                    H[..., i, j] += f
        H[..., 2, 2] = 2.0
        return H

    def band(self):
        return self.r

    def _project_batch(self, x):
        d = x - self.center
        s = np.hypot(d[:, 0], d[:, 1])
        # every point of the core circle is equally near an axis point, so
        # the nearest-point map is undefined there (and Hess phi is singular)
        if np.any(s <= 1e-12 * (1.0 + np.linalg.norm(d, axis=1))):
            raise ProjectionError("query point on the torus axis")
        return super()._project_batch(x)


class Graph(LevelSetConstraint):
    """N = {z = h(x, y)} for a quadratic height function h."""

    def __init__(self, coefficients, inside="negative_phi"):
        # h = c0 + cx x + cy y + cxx x^2 + cxy x y + cyy y^2
        self.c = {k: float(v) for k, v in coefficients.items()}
        for k in ("c0", "cx", "cy", "cxx", "cxy", "cyy"):
            self.c.setdefault(k, 0.0)
        self.inside = inside

    def _h(self, x, y):
        c = self.c
        return (
            c["c0"]
            + c["cx"] * x
            + c["cy"] * y
            + c["cxx"] * x**2
            + c["cxy"] * x * y
            + c["cyy"] * y**2
        )

    def phi(self, q):
        q = np.asarray(q, dtype=float)
        return q[..., 2] - self._h(q[..., 0], q[..., 1])

    def grad(self, q):
        q = np.asarray(q, dtype=float)
        c = self.c
        g = np.empty_like(q)
        g[..., 0] = -(c["cx"] + 2 * c["cxx"] * q[..., 0] + c["cxy"] * q[..., 1])
        g[..., 1] = -(c["cy"] + 2 * c["cyy"] * q[..., 1] + c["cxy"] * q[..., 0])
        g[..., 2] = 1.0
        return g

    def hess(self, q):
        q = np.asarray(q, dtype=float)
        c = self.c
        H = np.zeros(q.shape[:-1] + (3, 3))
        H[..., 0, 0] = -2 * c["cxx"]
        H[..., 1, 1] = -2 * c["cyy"]
        H[..., 0, 1] = H[..., 1, 0] = -c["cxy"]
        return H

    def band(self):
        curv = 2 * max(abs(self.c["cxx"]), abs(self.c["cyy"]), abs(self.c["cxy"]))
        return np.inf if curv == 0 else 0.5 / curv


def constraint_from_spec(spec: dict) -> LevelSetConstraint:
    """Builds a constraint from its scenario JSON record."""
    kind = spec["type"]
    inside = spec.get("inside", "negative_phi")
    if kind == "plane":
        return Plane(spec["point"], spec["normal"], inside)
    if kind == "sphere":
        return Sphere(spec["center"], spec["radius"], inside)
    if kind == "ellipsoid":
        return Ellipsoid(spec["center"], spec["semi_axes"], inside)
    if kind == "torus":
        return Torus(spec["center"], spec["major_radius"], spec["minor_radius"], inside)
    if kind == "graph":
        return Graph(spec["coefficients"], inside)
    raise ValueError(f"unknown constraint type {kind!r}")
