"""Workload inputs, the scenario pass, and the correctness checks.

Every workload is a list of scenario configs derived from the builtin
catalog. The inputs are written as OBJ files (with the constrained-flag
sidecar) and JSON configs, so the program sees only files. The seed picks a
rigid rotation about the z axis, applied to every mesh, polyline, base point
and plane; every sphere is centred on the z axis, so the rotation leaves each
problem's difficulty unchanged. Seed 0 is the unrotated catalog input.

Only the public pipeline is used: `fbms.scenarios.run_scenario`,
`fbms.cli.emit_report_bundle`, the samplers, and `fbms.obj_io` for the
inputs. Functions are looked up on their modules at call time, so that a
traced run sees the wrappers it installed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import fbms.cli
import fbms.obj_io
import fbms.samplers
import fbms.scenarios
from fbms.monotonicity import default_radius_grid

# Declared outcome of every builtin scenario: the stage pass flags it must
# report, and for a solve that is meant not to converge, its termination.
# graph-over-disk starts from a bulged cap and escapes along the disk's
# unstable vertical mode, so its solve exhausts the iteration budget and the
# escaped surface does not verify as minimal.
OUTCOMES = {
    "strip-on-plane": {
        "stage_pass": {"solve": True, "verify": True, "stability": True,
                       "doubling": True},
    },
    "disk-in-ball": {
        "stage_pass": {"solve": True, "verify": True, "stability": True,
                       "monotonicity": True, "fermi": True},
    },
    "catenoid-in-ball": {
        "stage_pass": {"solve": True, "verify": True, "stability": True},
    },
    "half-catenoid-double": {
        "stage_pass": {"verify": True, "doubling": True},
    },
    "graph-over-disk": {
        "stage_pass": {"solve": False, "verify": False, "stability": True},
        "solve": {"converged": False, "termination": "max_iterations"},
    },
    "halfplane-monotone": {
        "stage_pass": {"verify": True, "monotonicity": True},
    },
    "radial-segment-k1": {
        "stage_pass": {"monotonicity": True},
    },
}

CATALOG = [
    "strip-on-plane", "disk-in-ball", "half-catenoid-double",
    "graph-over-disk", "halfplane-monotone", "radial-segment-k1",
]

WORKLOADS = ("catenoid-solve", "density-sweep", "stability-fermi", "catalog")


def load_catalog():
    """The builtin catalog, checked against the declared outcome table."""
    catalog = fbms.scenarios.builtin_scenarios()
    if set(catalog) != set(OUTCOMES):
        raise RuntimeError(
            "builtin scenarios changed: "
            f"new {sorted(set(catalog) - set(OUTCOMES))}, "
            f"gone {sorted(set(OUTCOMES) - set(catalog))}; "
            "declare their outcomes in perfbench/workloads.py"
        )
    return catalog


def rotation(seed: int) -> np.ndarray:
    """Rigid rotation about z chosen by the seed; the identity for seed 0."""
    if seed == 0:
        return np.eye(3)
    angle = 2.0 * math.pi * np.random.default_rng(seed).random()
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rotate(rot, point):
    return [float(x) for x in rot @ np.asarray(point, dtype=float)]


def _sampler(name):
    return getattr(fbms.samplers, name, None) or getattr(fbms.scenarios, name)


def density_configs(catalog):
    """The two monotonicity-only problems of the density sweep."""
    halfplane = copy.deepcopy(catalog["halfplane-monotone"])
    halfplane["name"] = "density-halfplane"
    halfplane["initial_mesh"] = {"builtin": "halfplane_patch",
                                 "params": {"n": 96}}
    halfplane["analysis"] = {"monotonicity": {
        "base_point": [0.0, 0.0, 0.0], "radii": default_radius_grid(1.0)}}
    t0 = fbms.samplers.CRITICAL_CATENOID_T0
    scale = fbms.samplers.catenoid_scale_for_unit_sphere(t0)
    catenoid = {
        "schema_version": halfplane["schema_version"],
        "name": "density-catenoid",
        "initial_mesh": {"builtin": "critical_catenoid",
                         "params": {"nt": 64, "ntheta": 64}},
        "constraint": {"type": "sphere", "center": [0, 0, 0], "radius": 1.0},
        "solver": None,
        # base point on the upper boundary circle, which lies on the sphere
        "analysis": {"monotonicity": {
            "base_point": [scale * math.cosh(t0), 0.0, scale * t0],
            "radii": default_radius_grid(0.4)}},
        "seed": 0,
    }
    return [halfplane, catenoid]


def stability_config(catalog):
    cfg = copy.deepcopy(catalog["disk-in-ball"])
    cfg["name"] = "stability-disk"
    cfg["initial_mesh"] = {"builtin": "disk", "params": {
        "radius": 1.0, "n_radial": 64, "n_angular": 128}}
    cfg["solver"] = None
    cfg["analysis"] = {"stability": True,
                       "fermi": {"base_point": [1.0, 0.0, 0.0], "r0": 0.4}}
    return cfg


def workload_configs(workload: str, catalog) -> list:
    """Unrotated configs, each still naming its builtin sampler."""
    if workload == "catenoid-solve":
        return [copy.deepcopy(catalog["catenoid-in-ball"])]
    if workload == "density-sweep":
        return density_configs(catalog)
    if workload == "stability-fermi":
        return [stability_config(catalog)]
    if workload == "catalog":
        return [copy.deepcopy(catalog[name]) for name in CATALOG]
    raise ValueError(f"unknown workload {workload!r}")


def rotate_config(cfg: dict, rot) -> dict:
    """Rotates every point and normal of a config; spheres stay centred."""
    out = copy.deepcopy(cfg)
    con = out["constraint"]
    if con["type"] == "plane":
        con["point"] = _rotate(rot, con["point"])
        con["normal"] = _rotate(rot, con["normal"])
    elif con["type"] == "sphere":
        if any(float(c) != 0.0 for c in con["center"][:2]):
            raise ValueError("sphere centre must lie on the rotation axis")
    else:
        raise ValueError(f"no rotation rule for constraint {con['type']!r}")
    for key, spec in out["analysis"].items():
        if not isinstance(spec, dict):
            continue
        for field in ("base_point", "plane_point", "plane_normal"):
            if field in spec:
                spec[field] = _rotate(rot, spec[field])
    if "polyline" in out["initial_mesh"]:
        out["initial_mesh"]["polyline"] = [
            _rotate(rot, p) for p in out["initial_mesh"]["polyline"]]
    return out


def build_input_mesh(cfg: dict, rot):
    spec = cfg["initial_mesh"]
    mesh = _sampler(spec["builtin"])(**spec.get("params", {}))
    return mesh.with_vertices(mesh.vertices @ rot.T)


def write_inputs(workload: str, seed: int, directory: Path) -> list:
    """Writes the workload's OBJ inputs and JSON configs under `directory`.

    Configs name their meshes by paths relative to `directory`, which must be
    the working directory while the scenarios run; report bundles then do
    not depend on where the checkout lives. Returns the config file paths.
    """
    directory = Path(directory)
    (directory / "inputs").mkdir(parents=True, exist_ok=True)
    rot = rotation(seed)
    paths = []
    for cfg in workload_configs(workload, load_catalog()):
        out = rotate_config(cfg, rot)
        if "builtin" in cfg["initial_mesh"]:
            rel = Path("inputs") / f"{cfg['name']}.obj"
            fbms.obj_io.write_obj(build_input_mesh(cfg, rot), directory / rel)
            out["initial_mesh"] = {"obj": rel.as_posix()}
        path = directory / "inputs" / f"{cfg['name']}.json"
        path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")
        paths.append(path)
    return paths


# -- one pass ------------------------------------------------------------------


def run_pass(configs, out_root: Path, on_scenario=None):
    """Runs and bundles every config; returns one record per scenario.

    `on_scenario(name)` is entered around each scenario when given (the
    tracer uses it to give the scenario's spans one id).
    """
    records = []
    for cfg in configs:
        out_dir = out_root / cfg["name"]
        rec = {"name": cfg["name"], "error": None}
        try:
            if on_scenario is None:
                _run_one(cfg, out_dir, rec)
            else:
                with on_scenario(cfg["name"]):
                    _run_one(cfg, out_dir, rec)
        except Exception as exc:  # a raising scenario is a counted failure
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def _run_one(cfg, out_dir, rec):
    manifest = fbms.scenarios.run_scenario(cfg, out_dir)
    bundle = fbms.cli.emit_report_bundle(out_dir / "manifest.json")
    rec["manifest"] = manifest
    rec["out_dir"] = out_dir
    rec["bundle_sha256"] = hashlib.sha256(Path(bundle).read_bytes()).hexdigest()


# -- checks ----------------------------------------------------------------------


def disk_lambda_min() -> float:
    """Lowest Jacobi eigenvalue of the equatorial disk in the unit ball:
    -x^2 where x I1(x) / I0(x) = 1 (Robin condition f' = f on the circle)."""
    from scipy.optimize import brentq
    from scipy.special import i0, i1

    x = brentq(lambda s: s * i1(s) / i0(s) - 1.0, 0.5, 3.0, xtol=1e-14)
    return -x * x


def _json(out_dir, name):
    return json.loads((Path(out_dir) / name).read_text())


def _check_outcome(rec):
    """Declared stage flags and solve termination; returns problems found."""
    name = rec["name"]
    man = rec["manifest"]
    problems = []
    if man.failure is not None:
        problems.append(f"failed at {man.failure['stage']}: {man.failure['error']}")
    # scenarios outside the catalog must pass every stage they run
    declared = OUTCOMES.get(name, {})
    want = declared.get("stage_pass", {stage: True for stage in man.stage_pass})
    if dict(man.stage_pass) != want:
        problems.append(f"stage_pass {dict(man.stage_pass)} != declared {want}")
    if "solve" in declared:
        solve = _json(rec["out_dir"], "solve.json")
        got = {k: solve.get(k) for k in declared["solve"]}
        if got != declared["solve"]:
            problems.append(f"solve {got} != declared {declared['solve']}")
    return problems


def _check_catenoid(rec):
    from scipy.optimize import brentq

    problems = []
    if not _json(rec["out_dir"], "verify.json")["passes"]:
        problems.append("verify did not pass")
    mesh = fbms.obj_io.read_obj(rec["out_dir"] / "final_mesh.obj")
    neck = float(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]).min())
    # a catenoid with boundary on the unit sphere at parameter t has neck
    # radius 1 / sqrt(cosh^2 t + t^2); the critical one solves t tanh t = 1
    t_hat = brentq(lambda t: neck**2 * (math.cosh(t) ** 2 + t**2) - 1.0, 0.1, 5.0)
    err = abs(t_hat * math.tanh(t_hat) - 1.0)
    if err > 0.02:
        problems.append(f"|t tanh t - 1| = {err:.4f} > 0.02")
    return problems


def _check_halfplane(rec):
    prof = _json(rec["out_dir"], "density.json")["profile"]
    dev = max(abs(t - math.pi / 2) / (math.pi / 2) for t in prof["theta"])
    max_def = max(prof["deficits"])
    problems = []
    if dev > 1e-2:
        problems.append(f"|Theta - pi/2|/(pi/2) = {dev:.2e} > 1e-2")
    if max_def > 1e-10:
        problems.append(f"max deficit {max_def:.2e} > 1e-10")
    return problems


def _check_density_catenoid(rec):
    if not _json(rec["out_dir"], "density.json")["check"]["passed"]:
        return ["check_monotonicity did not pass"]
    return []


def _check_stability_disk(rec):
    problems = []
    lam = _json(rec["out_dir"], "stability.json")["lambda_min"]
    want = disk_lambda_min()
    if abs(lam - want) > 1e-3:
        problems.append(f"lambda_min {lam:.6f} not within 1e-3 of {want:.6f}")
    res = _json(rec["out_dir"], "fermi.json")["neumann_residual"]
    if res > 0.05:
        problems.append(f"Neumann residual {res:.4f} > 0.05")
    return problems


CHECKS = {
    "catenoid-in-ball": _check_catenoid,
    "density-halfplane": _check_halfplane,
    "density-catenoid": _check_density_catenoid,
    "stability-disk": _check_stability_disk,
}


def check_record(rec) -> list:
    """All problems with one scenario run; empty when it is correct."""
    if rec["error"] is not None:
        return [rec["error"]]
    problems = _check_outcome(rec)
    if rec["name"] in CHECKS:
        try:
            problems += CHECKS[rec["name"]](rec)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return problems
