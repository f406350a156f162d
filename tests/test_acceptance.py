"""Acceptance gate: one check per shipped guarantee, each printing a
PASS/FAIL line. Expected values come from closed forms or independent
numerical oracles, never from the code under test."""

import json
import tarfile
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from fbms.blowup import RescaleMap, curvature_survey, reflect_double, rescale
from fbms.cli import emit_report_bundle, main as cli_main
from fbms.constraints import Plane, Sphere, estimate_kappa
from fbms.fermi import GridSpec, build_chart, graph_extract, neumann_residual
from fbms.mesh import (
    mean_curvature_vector,
    second_fundamental_norm,
    total_area,
    vertex_normals,
)
from fbms.monotonicity import (
    Polyline,
    check_monotonicity,
    default_radius_grid,
    density_profile,
)
from fbms.samplers import (
    CRITICAL_CATENOID_T0,
    catenoid,
    critical_catenoid,
    disk,
    grid_patch,
    half_catenoid,
    halfplane_patch,
    spherical_cap_graph,
    strip_on_plane,
)
from fbms.scenarios import builtin_scenarios, perturbed_critical_catenoid
from fbms.stability import (
    assemble_stability_form,
    lowest_eigenpair,
    quadratic_form_value,
)
from fbms.variation import (
    discrete_first_variation,
    finite_difference_variation,
    free_boundary_residual,
    solve_minimal,
    SolveParams,
    verify_minimal,
)

SPHERE = Sphere(np.zeros(3), 1.0)


def report(number, ok, detail):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_first_variation_oracle():
    """Exact first variation matches central differences on random fields."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(20):
        kind = trial % 3
        if kind == 0:
            mesh = grid_patch(6, 6)
        elif kind == 1:
            mesh = disk(1.0, 6, 18)
        else:
            mesh = catenoid(-1.0, 1.0, 8, 16)
        bump = 0.05 * rng.standard_normal(mesh.vertices.shape)
        mesh = mesh.with_vertices(mesh.vertices + bump)
        X = rng.standard_normal(mesh.vertices.shape)
        exact = discrete_first_variation(mesh, X)
        fd = finite_difference_variation(mesh, X, 1e-6)
        worst = max(worst, abs(exact - fd) / (1.0 + abs(fd)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"max relative mismatch {worst:.2e} over 20 pairs, {elapsed:.1f}s")


def test_criterion_2_critical_catenoid():
    """Descent from a perturbed critical catenoid lands on the catenoid whose
    neck parameter solves t tanh t = 1."""
    t0 = time.time()
    mesh = perturbed_critical_catenoid(64, 64)
    rep = solve_minimal(mesh, SPHERE, SolveParams(max_iterations=2000))
    final = rep.final_mesh
    check = verify_minimal(final, SPHERE)
    neck = float(np.linalg.norm(final.vertices[:, :2], axis=1).min())
    t_hat = brentq(lambda t: neck**2 * (np.cosh(t) ** 2 + t**2) - 1.0, 0.1, 5.0)
    crit_res = abs(t_hat * np.tanh(t_hat) - 1.0)
    elapsed = time.time() - t0
    ok = (
        check["max_interior_H"] <= 5e-2
        and check["free_boundary_residual"] <= 2e-2
        and crit_res <= 0.02
        and elapsed < 60.0
    )
    report(
        2,
        ok,
        f"max|H|={check['max_interior_H']:.4f}, "
        f"ortho={check['free_boundary_residual']:.4f} rad, "
        f"|t tanh t - 1|={crit_res:.4f} (t0={CRITICAL_CATENOID_T0:.5f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_stability_signs():
    """Flat strip neutrally stable; equatorial disk unstable with Q(1) = -2 pi
    and lambda_min below the constant-function Rayleigh quotient."""
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        strip = strip_on_plane(12)
        form_s = assemble_stability_form(strip, Plane(np.zeros(3), [1.0, 0, 0]))
        lam_s, _, _ = lowest_eigenpair(form_s)
        d = disk(1.0, 24, 48)
        form_d = assemble_stability_form(d, SPHERE)
        one = np.ones(d.n_vertices)
        q1 = quadratic_form_value(form_d, one)
        rayleigh = q1 / float(one @ (form_d.mass @ one))
        lam_d, _, res_d = lowest_eigenpair(form_d)
    elapsed = time.time() - t0
    # independent oracle: Q(1) = -perimeter = -2 pi; the Rayleigh quotient of
    # the constant uses the true disk area pi, giving -2 (not the -4 quoted
    # with area pi/2); lambda_min must undercut it with 5% headroom
    ok = (
        lam_s >= -1e-8
        and abs(q1 + 2 * np.pi) <= 0.02 * 2 * np.pi
        and lam_d <= rayleigh * (1 - 0.05)
        and res_d <= 1e-8
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"strip lam_min={lam_s:.2e}, disk Q(1)={q1:.4f} (target -2pi), "
        f"disk lam_min={lam_d:.4f} <= Rayleigh {rayleigh:.4f} x 0.95, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_monotonicity_flat():
    """Half-plane through the base point: constant density pi/2, no deficit."""
    hp = halfplane_patch(96)
    plane = Plane(np.zeros(3), [1.0, 0, 0])
    prof = density_profile(hp, plane, np.zeros(3), default_radius_grid(1.0))
    dev = max(abs(t - np.pi / 2) / (np.pi / 2) for t in prof.theta)
    max_def = max(prof.deficits)
    ok = dev <= 0.01 and max_def <= 1e-10
    report(4, ok, f"max |Theta - pi/2|/(pi/2) = {dev:.2e}, max deficit = {max_def:.1e}")


def test_criterion_5_monotonicity_curved():
    """Equatorial disk, base point on the sphere: the weighted inequality
    holds with the deficit term at 2% slack."""
    t0 = time.time()
    d = disk(1.0, 32, 96)
    radii = [0.05 * 2**j for j in range(4)]
    prof = density_profile(d, SPHERE, np.array([1.0, 0, 0]), radii)
    rep = check_monotonicity(prof)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 30.0
    report(5, ok, f"worst margin {rep.worst_margin:.4f} at pair {rep.worst_pair}, {elapsed:.1f}s")


def test_criterion_6_k1_closed_form():
    """Radial segment ending on the unit sphere: Theta(r) = exp(6r) exactly
    (k=1, gamma=2/R0=2)."""
    ray = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    prof = density_profile(ray, SPHERE, np.array([1.0, 0.0]), [0.1, 0.2])
    errs = [abs(t - np.exp(6 * r)) for r, t in zip(prof.radii, prof.theta)]
    ok = max(errs) <= 1e-6
    report(6, ok, f"|Theta - exp(6r)| = {max(errs):.2e} at r in {{0.1, 0.2}}")


def test_criterion_7_tangency_correction_bounds():
    """Unit sphere: |zeta| <= gamma |x-p|^2, finite-difference |D zeta| <=
    2 gamma |x-p|, and the sampled turning bound recovers kappa = 1."""
    t0 = time.time()
    rng = np.random.default_rng(5)
    p = np.array([1.0, 0, 0])
    gamma = 2.0  # 2 / R0 with R0 = 1
    # ambient samples in B(p, R0/2), kept in the projection band
    x = p + 0.5 * rng.standard_normal((10 * 10**4, 3))
    x = x[np.linalg.norm(x - p, axis=1) < 0.5]
    x = x[np.abs(np.linalg.norm(x, axis=1) - 1.0) < 0.45][: 10**4]
    assert len(x) == 10**4
    z = SPHERE.zeta(p, x)
    r = np.linalg.norm(x - p, axis=1)
    bound_ok = np.all(np.linalg.norm(z, axis=1) <= gamma * r**2 + 1e-8)
    h = 1e-5
    worst_d = 0.0
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = h
        col = (SPHERE.zeta(p, x + dp) - SPHERE.zeta(p, x - dp)) / (2 * h)
        worst_d = max(worst_d, float(np.max(np.linalg.norm(col, axis=1) - 2 * gamma * r)))
    deriv_ok = worst_d <= 1e-3  # fd truncation allowance
    kap, _ = estimate_kappa(SPHERE, p, 0.5, sample_count=2000, seed=1)
    elapsed = time.time() - t0
    ok = bound_ok and deriv_ok and 0.98 <= kap <= 1.0 and elapsed < 20.0
    report(
        7,
        ok,
        f"|zeta| bound holds on 10^4 samples, worst D-zeta excess {worst_d:.1e}, "
        f"kappa estimate {kap:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_reflection_principle():
    """Doubling: half-catenoid reproduces the analytic catenoid; flat
    half-strip doubles to an exact plane."""
    hc = half_catenoid(1.0, 16, 48)
    doubled = reflect_double(hc, (np.zeros(3), np.array([0.0, 0, 1.0])))
    full = catenoid(-1.0, 1.0, 32, 48)
    dist, _ = cKDTree(full.vertices).query(doubled.vertices)
    H = mean_curvature_vector(doubled).values
    interior = ~doubled.is_boundary_vertex()
    seam = np.abs(doubled.vertices[:, 2]) < 1e-12
    seam_h = float(np.linalg.norm(H[seam & interior], axis=1).max())
    off_h = float(np.linalg.norm(H[~seam & interior], axis=1).max())

    strip = strip_on_plane(10)
    dstrip = reflect_double(strip, (np.zeros(3), np.array([1.0, 0, 0])))
    planar = float(np.abs(dstrip.vertices[:, 2]).max())
    ok = dist.max() <= 1e-8 and seam_h <= 2 * off_h and planar == 0.0
    report(
        8,
        ok,
        f"catenoid vertex match {dist.max():.1e}, seam/off-seam H "
        f"{seam_h:.4f}/{off_h:.4f}, doubled strip planarity {planar:.1e}",
    )


def test_criterion_9_curvature_survey():
    """Survey statistic sup |A| dist is bounded on the stable family and
    invariant under rescaling to 1%."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = []
        for radius in (1.0, 2.0, 4.0):
            m = disk(radius, 12, 36)
            a2, _ = second_fundamental_norm(m)
            rows.append({
                "name": f"disk-r{radius}",
                "mesh": m,
                "curvature": np.sqrt(np.maximum(a2.values, 0.0)),
                "stable": True,
                "lambda_min": 0.0,
            })
        cat = critical_catenoid(32, 32)
        a2c, _ = second_fundamental_norm(cat)
        rows.append({
            "name": "critical-catenoid",
            "mesh": cat,
            "curvature": np.sqrt(np.maximum(a2c.values, 0.0)),
            "stable": False,
            "lambda_min": -1.0,
        })
        p = np.zeros(3)
        out, summary = curvature_survey(rows, (p, 1.0))
        flat_sup = max(r.sup_norm for r in out if r.scenario.startswith("disk"))

        # rescale covariance on the catenoid: |A| scales by 1/lam, dist by lam
        lam = 2.0
        cat2, _ = rescale(cat, SPHERE, RescaleMap(p, lam))
        a2c2, _ = second_fundamental_norm(cat2)
        row2 = [{
            "name": "critical-catenoid-rescaled",
            "mesh": cat2,
            "curvature": np.sqrt(np.maximum(a2c2.values, 0.0)),
            "stable": True,
            "lambda_min": 0.0,
        }]
        out2, _ = curvature_survey(row2, (p, lam * 1.0))
        base = [r for r in out if r.scenario == "critical-catenoid"][0].sup_norm
        covariance = abs(out2[0].sup_norm - base) / base
    excluded = "critical-catenoid" in summary["excluded"]
    ok = flat_sup <= 1e-10 and excluded and covariance <= 0.01
    report(
        9,
        ok,
        f"flat family sup_norm {flat_sup:.1e}, unstable row excluded: {excluded}, "
        f"rescale covariance {covariance:.2e}",
    )


def _disk_fermi_setup(mesh):
    chart = build_chart(SPHERE, np.array([1.0, 0, 0]), 0.4)
    n, e1, e2 = chart.frame
    p = chart.base
    nearest = int(np.argmin(np.linalg.norm(mesh.vertices - p, axis=1)))
    nu = vertex_normals(mesh).values[nearest]
    # graph half-plane: the chart's inward t-axis first, then the boundary
    # tangent; the graph height u then measures deviation from orthogonality
    bt = np.cross(nu, n)
    bt /= np.linalg.norm(bt)
    w1 = np.array([-1.0, 0.0, 0.0])
    w2 = np.array([0.0, bt @ e1, bt @ e2])
    return chart, (w1, w2)


def test_criterion_10_fermi_neumann():
    """Neumann residual vanishes on the exact disk under refinement and
    tracks the conormal residual on a tilted family within a 3x band."""
    d = disk(1.0, 48, 96)
    chart, basis = _disk_fermi_setup(d)
    res = []
    for h in (0.04, 0.02, 0.01):
        gs = GridSpec(h=h, nt=3, s_half=0.05, ns=3)
        res.append(neumann_residual(graph_extract(chart, d, basis, gs)))
    refinement_ok = all(
        r2 <= max(0.5 * r1, 1e-10) for r1, r2 in zip(res, res[1:])
    )

    # bulged caps meet the sphere at an angle: both residuals are nonzero
    # and must agree within the 3x correlation band
    correl_ok = True
    pairs = []
    for bulge in (0.02, 0.05):
        cap = spherical_cap_graph(bulge, 32, 96)
        ortho, _ = free_boundary_residual(cap, SPHERE)
        chart_c, basis_c = _disk_fermi_setup(cap)
        gs = GridSpec(h=0.01, nt=3, s_half=0.02, ns=3)
        neo = neumann_residual(graph_extract(chart_c, cap, basis_c, gs))
        pairs.append((ortho, neo))
        correl_ok = correl_ok and neo <= 3 * ortho + 1e-6 and ortho <= 3 * neo + 1e-6
    ok = refinement_ok and correl_ok
    report(
        10,
        ok,
        f"disk residuals {['%.1e' % r for r in res]} under h refinement; "
        f"tilted pairs (ortho, neumann) = "
        + ", ".join(f"({a:.4f}, {b:.4f})" for a, b in pairs),
    )


def test_criterion_11_deterministic_bundles(tmp_path):
    """Two identical CLI runs produce byte-identical report bundles."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["run", "disk-in-ball", "--out", str(out)])
        assert code == 0
        bundle = emit_report_bundle(out / "disk-in-ball" / "manifest.json")
        outs.append(bundle.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    report(11, ok, f"bundle bytes equal ({len(outs[0])} bytes)")
