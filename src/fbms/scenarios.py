"""Scenario library and the report-producing pipeline behind the CLI.

A scenario bundles an initial geometry, a constraint, solver parameters, and
analysis toggles into a versioned JSON config. The pipeline runs the enabled
stages in the order of the stage table `_STAGES` and writes deterministic
report files per stage. An optional `expect` block declares the outcome a
scenario is designed to have; without one, every stage must pass.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, fermi
from .blowup import reflect_double
from .constraints import Plane, _is_number, constraint_from_spec
from .fermi import GridSpec, build_chart, graph_extract, neumann_residual
from .mesh import mean_curvature_vector, validate_mesh, vertex_normals
from .monotonicity import (
    Polyline,
    check_monotonicity,
    default_radius_grid,
    density_profile,
    profile_arguments,
)
from .obj_io import read_obj, write_obj
from .samplers import (
    CRITICAL_CATENOID_T0,
    critical_catenoid,
    disk,
    half_catenoid,
    halfplane_patch,
    spherical_cap_graph,
    strip_on_plane,
)
from .stability import is_stable
from .variation import TERMINATIONS, SolveParams, solve_minimal, verify_minimal

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    pass


PERTURBATION_AMPLITUDE = 0.005  # perturbed_critical_catenoid's normal offset
PERTURBATION_MODE = 3  # and its angular frequency


def perturbed_critical_catenoid(nt=64, ntheta=64):
    """Critical catenoid with a banded normal perturbation away from the
    boundary rings and the waist (keeps the descent inside the basin where
    the boundary rings stay well shaped)."""
    mesh = critical_catenoid(nt, ntheta)
    v = mesh.vertices
    bnd = mesh.is_boundary_vertex()
    zb = float(np.abs(v[bnd][:, 2]).max())
    theta = np.arctan2(v[:, 1], v[:, 0])
    window = np.exp(-(((np.abs(v[:, 2]) - 0.3 * zb) / (0.15 * zb)) ** 2))
    f = PERTURBATION_AMPLITUDE * np.cos(PERTURBATION_MODE * theta) * window
    f[bnd] = 0.0
    n = vertex_normals(mesh)
    return mesh.with_vertices(v + f[:, None] * n)


# the samplers a config names by their function names
_BUILTIN_SAMPLERS = {f.__name__: f for f in (
    strip_on_plane, halfplane_patch, disk, critical_catenoid,
    perturbed_critical_catenoid, half_catenoid, spherical_cap_graph)}


def builtin_scenarios():
    """Catalog of named scenario configs, in a fixed listing order."""
    t0 = CRITICAL_CATENOID_T0
    return {
        "strip-on-plane": {
            "schema_version": SCHEMA_VERSION,
            "name": "strip-on-plane",
            "initial_mesh": {"builtin": "strip_on_plane", "params": {"n": 12}},
            "constraint": {"type": "plane", "point": [0, 0, 0], "normal": [1, 0, 0]},
            "solver": {"max_iterations": 200},
            "analysis": {
                "stability": True,
                "doubling": {"plane_point": [0, 0, 0], "plane_normal": [1, 0, 0]},
            },
            "seed": 0,
        },
        "disk-in-ball": {
            "schema_version": SCHEMA_VERSION,
            "name": "disk-in-ball",
            "initial_mesh": {
                "builtin": "disk",
                "params": {"radius": 1.0, "n_radial": 20, "n_angular": 48},
            },
            "constraint": {"type": "sphere", "center": [0, 0, 0], "radius": 1.0},
            "solver": {"max_iterations": 400},
            "analysis": {
                "stability": True,
                "monotonicity": {
                    "base_point": [1, 0, 0],
                    "radii": [0.05, 0.1, 0.2, 0.4],
                },
                "fermi": {"base_point": [1, 0, 0], "r0": 0.4},
            },
            "seed": 0,
        },
        "catenoid-in-ball": {
            "schema_version": SCHEMA_VERSION,
            "name": "catenoid-in-ball",
            "description": f"neck parameter initialized at t0 = {t0:.5f}",
            "initial_mesh": {
                "builtin": "perturbed_critical_catenoid",
                "params": {"nt": 64, "ntheta": 64},
            },
            "constraint": {"type": "sphere", "center": [0, 0, 0], "radius": 1.0},
            "solver": {"max_iterations": 2000},
            "analysis": {"stability": True},
            "seed": 0,
        },
        "half-catenoid-double": {
            "schema_version": SCHEMA_VERSION,
            "name": "half-catenoid-double",
            "initial_mesh": {
                "builtin": "half_catenoid",
                "params": {"t_max": 1.0, "nt": 32, "ntheta": 96},
            },
            "constraint": {"type": "plane", "point": [0, 0, 0], "normal": [0, 0, 1]},
            "solver": None,
            "analysis": {
                "doubling": {"plane_point": [0, 0, 0], "plane_normal": [0, 0, 1]},
            },
            "seed": 0,
        },
        "graph-over-disk": {
            "schema_version": SCHEMA_VERSION,
            "name": "graph-over-disk",
            "description": "free-boundary descent from a bulged cap; escapes along the unstable vertical mode (the disk is an unstable critical point), so the solve stage reports non-convergence",
            "initial_mesh": {
                "builtin": "spherical_cap_graph",
                "params": {"bulge": 0.1, "n_radial": 16, "n_angular": 48},
            },
            "constraint": {"type": "sphere", "center": [0, 0, 0], "radius": 1.0},
            "solver": {"max_iterations": 300},
            "analysis": {"stability": True},
            "expect": {
                "stage_pass": {"solve": False, "verify": False, "stability": True},
                "solve": {"termination": "max_iterations"},
            },
            "seed": 0,
        },
        "halfplane-monotone": {
            "schema_version": SCHEMA_VERSION,
            "name": "halfplane-monotone",
            "initial_mesh": {"builtin": "halfplane_patch", "params": {"n": 64}},
            "constraint": {"type": "plane", "point": [0, 0, 0], "normal": [1, 0, 0]},
            "solver": None,
            "analysis": {
                "monotonicity": {
                    "base_point": [0, 0, 0],
                    "radii": default_radius_grid(1.0),
                },
            },
            "seed": 0,
        },
        "radial-segment-k1": {
            "schema_version": SCHEMA_VERSION,
            "name": "radial-segment-k1",
            "description": "k=1 closed-form oracle: Theta(r) = exp(6r)",
            "initial_mesh": {
                "polyline": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            },
            "constraint": {"type": "sphere", "center": [0, 0, 0], "radius": 1.0},
            "solver": None,
            "analysis": {
                "monotonicity": {"base_point": [1, 0, 0], "radii": [0.1, 0.2]},
            },
            "seed": 0,
        },
    }


_TOP_KEYS = {
    "schema_version", "name", "description", "initial_mesh", "constraint",
    "solver", "analysis", "expect", "seed",
}


def _check_builds(what, build, spec):
    """Builds a nested spec with its own constructor, as a stage would."""
    try:
        return build(spec)
    except KeyError as exc:
        raise ScenarioError(f"{what} is missing key {exc}") from None
    except (TypeError, ValueError, FloatingPointError) as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from None


def _blocks(config):
    """Each stage's config block; a stage whose block is absent, null or
    false does not run."""
    return {"solve": config.get("solver"), "verify": True,
            **config.get("analysis", {})}


def _stages_run(config):
    """The stages run_scenario runs for a config, in pipeline order; a
    polyline takes only the monotonicity stage, and builtin and OBJ meshes
    are triangle meshes."""
    blocks = _blocks(config)
    is_mesh = "polyline" not in config["initial_mesh"]
    return [name for name, _, _ in _STAGES
            if blocks.get(name) not in (None, False)
            and (is_mesh or name == "monotonicity")]


def _validate_analysis(analysis, constraint, polyline):
    if not isinstance(analysis, dict):
        raise ScenarioError("analysis must be an object")
    allowed = {name: keys for name, keys, _ in _STAGES if keys is not None}
    bad = set(analysis) - set(allowed)
    if bad:
        raise ScenarioError(f"unknown analysis keys: {sorted(bad)}")
    for name, block in analysis.items():
        if allowed[name] is bool:
            if not isinstance(block, bool):
                raise ScenarioError(f"analysis.{name} must be true or false")
            continue
        required, optional, check = allowed[name]
        if not (isinstance(block, dict)
                and set(required) <= set(block) <= set(required + optional)):
            raise ScenarioError(f"analysis.{name} must be an object with keys "
                                f"{list(required)} and optionally {list(optional)}")
        _check_builds(f"analysis.{name}",
                      lambda b: check(b, constraint, polyline), block)


def _validate_expect(expect, stages):
    if not isinstance(expect, dict):
        raise ScenarioError("expect must be an object")
    unknown = set(expect) - {"stage_pass", "solve"}
    if unknown:
        raise ScenarioError(f"unknown expect keys: {sorted(unknown)}")
    stage_pass = expect.get("stage_pass")
    if not isinstance(stage_pass, dict):
        raise ScenarioError("expect.stage_pass must be an object")
    if set(stage_pass) != set(stages):
        raise ScenarioError(
            f"expect.stage_pass must name the stages this config runs, "
            f"{sorted(stages)}; got {sorted(stage_pass)}")
    if not all(isinstance(v, bool) for v in stage_pass.values()):
        raise ScenarioError("expect.stage_pass values must be true or false")
    if "solve" not in expect:
        return
    if "solve" not in stages:
        raise ScenarioError("expect.solve needs a solve stage")
    solve = expect["solve"]
    if (not isinstance(solve, dict) or set(solve) != {"termination"}
            or solve["termination"] not in TERMINATIONS):
        raise ScenarioError('expect.solve must be {"termination": <string>}, the '
                            f'string one of {list(TERMINATIONS)}')


def is_path_component(name) -> bool:
    """Whether name is a string without / or \\, and not "", "." or "..": a
    file or directory name that stays inside its parent directory."""
    return isinstance(name, str) and name not in ("", ".", "..") and not {"/", "\\"} & set(name)


def manifest_outputs(manifest_path) -> list:
    """The output names a run's manifest lists; ValueError unless each names a file beside it."""
    manifest = json.loads(Path(manifest_path).read_text())
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not (isinstance(outputs, (dict, list)) and all(map(is_path_component, outputs))):
        raise ValueError(f"{manifest_path}: outputs must name the stage output files beside it")
    return list(outputs)


def validate_config(config: dict):
    """Fail-closed schema check. Returns a deep copy with defaults filled,
    and the geometry the check built: a builtin mesh or a polyline; None for
    an OBJ file, which the run's setup reads."""
    if not isinstance(config, dict):
        raise ScenarioError("config must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown config keys: {sorted(unknown)}")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {config.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION}"
        )
    for key in ("name", "initial_mesh", "constraint"):
        if key not in config:
            raise ScenarioError(f"missing required key {key!r}")
    name = config["name"]  # the run's directory under the output root
    if not is_path_component(name):
        raise ScenarioError(f"name must be one path component, not {name!r}")
    mesh_spec = config["initial_mesh"]
    if not isinstance(mesh_spec, dict):
        raise ScenarioError("initial_mesh must be an object")
    kinds = set(mesh_spec) & {"builtin", "obj", "polyline"}
    if len(kinds) != 1:
        raise ScenarioError("initial_mesh needs exactly one of builtin/obj/polyline")
    extra = set(mesh_spec) - {"builtin", "obj", "polyline", "params"}
    if extra:
        raise ScenarioError(f"unknown initial_mesh keys: {sorted(extra)}")
    geometry = None
    if "builtin" in mesh_spec:
        builtin = mesh_spec["builtin"]
        sampler = _BUILTIN_SAMPLERS.get(builtin) if isinstance(builtin, str) else None
        if sampler is None:
            raise ScenarioError(f"unknown builtin sampler {builtin!r}")
        geometry = _check_builds("initial_mesh", _build_builtin, mesh_spec)
    if "obj" in mesh_spec:
        obj = mesh_spec["obj"]
        if not (isinstance(obj, str) and Path(obj).is_file()):
            raise ScenarioError(f"mesh file not found: {obj!r}")
    polyline = "polyline" in mesh_spec
    if polyline:
        geometry = _check_builds("initial_mesh", _build_geometry, mesh_spec)
    constraint = _check_builds("constraint", constraint_from_spec, config["constraint"])
    _validate_analysis(config.get("analysis", {}), constraint, polyline)
    if config.get("solver") is not None:
        _check_builds("solver", lambda spec: SolveParams(**spec), config["solver"])
    if "expect" in config:
        _validate_expect(config["expect"], _stages_run(config))
    out = copy.deepcopy(config)
    out.setdefault("seed", 0)
    out.setdefault("solver", None)
    out.setdefault("analysis", {})
    return out, geometry


def _build_builtin(spec):
    """Builds a builtin mesh, so that params its sampler cannot use (not
    finite, a wrong type or range, an overflow) and a mesh that
    validate_mesh rejects fail before the run directory exists."""
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise TypeError("params must be an object")
    bad = [k for k, v in params.items() if isinstance(v, float) and not np.isfinite(v)]
    if bad:
        raise ValueError(f"params {bad} must be finite numbers")
    with np.errstate(over="raise", invalid="raise"):
        mesh = _build_geometry(spec)
    bad = validate_mesh(mesh)
    if bad:
        raise ValueError(f"{len(bad)} mesh violations, the first: {bad[0]}")
    return mesh


def _build_geometry(spec):
    if "builtin" in spec:
        geometry = _BUILTIN_SAMPLERS[spec["builtin"]](**spec.get("params", {}))
    elif "obj" in spec:
        geometry = read_obj(spec["obj"])
    else:
        geometry = Polyline(spec["polyline"])
    bad = np.nonzero(~np.isfinite(geometry.vertices).all(axis=1))[0]
    if len(bad):
        raise ValueError(f"non-finite coordinates at vertices {bad.tolist()}")
    return geometry


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


@dataclass
class RunManifest:
    version: str
    # NumPy and SciPy are the build inputs that reach the output bytes
    numpy_version: str
    scipy_version: str
    scenario: str
    scenario_hash: str
    seed: int
    outputs: dict = field(default_factory=dict)  # filename -> sha256
    stage_pass: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)
    failure: dict | None = None
    expect: dict | None = None  # the config's declared outcome
    solve_termination: str | None = None  # the solve report's termination

    def all_passed(self):
        return self.failure is None and all(self.stage_pass.values())

    def mismatches(self):
        """How the run differs from its declared outcome, as readable lines;
        empty when it matches. Without `expect` every stage must pass."""
        problems = []
        if self.failure is not None:
            problems.append(f"failure at stage {self.failure['stage']}: "
                            f"{self.failure['error']}")
        expect = self.expect or {}
        want = expect.get("stage_pass", {k: True for k in self.stage_pass})
        if self.stage_pass != want:
            problems.append(f"stage_pass {dict(sorted(self.stage_pass.items()))} "
                            f"!= expected {dict(sorted(want.items()))}")
        want_termination = expect.get("solve", {}).get("termination")
        if want_termination not in (None, self.solve_termination):
            problems.append(f"solve termination {self.solve_termination!r} "
                            f"!= expected {want_termination!r}")
        return problems

    def to_json_dict(self):
        return {
            "version": self.version,
            "numpy_version": self.numpy_version,
            "scipy_version": self.scipy_version,
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "outputs": dict(sorted(self.outputs.items())),
            "stage_pass": dict(sorted(self.stage_pass.items())),
            "failure": self.failure,
        }


def _write(path: Path, output) -> str:
    """Writes a stage output (a mesh as OBJ, a dict as sorted-key JSON, text
    as it is) and returns the sha256 of the bytes written."""
    if isinstance(output, dict):
        output = json.dumps(output, sort_keys=True, indent=1) + "\n"
    if isinstance(output, str):
        path.write_text(output)
    else:
        write_obj(output, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- stages ---------------------------------------------------------------------
# A stage takes (geometry, constraint, the verify stage's result or None, its
# config block) and returns (passed, {output file: mesh | dict | text}). It
# calls the library through this module's names, looked up when it runs, so
# a wrapper installed on fbms.scenarios sees every call.


def _solve(geometry, constraint, check, block):
    report = solve_minimal(geometry, constraint, SolveParams(**block))
    return report.converged, {"solve.json": report.summary_dict(),
                              "final_mesh.obj": report.final_mesh}


def _verify(geometry, constraint, check, block):
    check = verify_minimal(geometry, constraint)
    return check["passes"], {"verify.json": check}


def _stability(geometry, constraint, check, block):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = is_stable(geometry, constraint, check=check)
    stability = report.to_json_dict()
    stability["warnings"] = [str(w.message) for w in caught]
    # the stage passes when the residual measured on the returned pair is
    # small; stability itself is a finding, not a failure
    return report.residual <= 1e-8, {"stability.json": stability}


def _monotonicity(geometry, constraint, check, block):
    profile = density_profile(geometry, constraint, block["base_point"],
                              block["radii"], check=check)
    mono = check_monotonicity(profile)
    return mono.passed, {
        "density.csv": profile.to_csv(),
        "density.json": {"profile": profile.to_json_dict(),
                         "check": mono.to_json_dict()},
    }


def _fermi(geometry, constraint, check, block):
    p = np.asarray(block["base_point"], dtype=float)
    chart = build_chart(constraint, p, block.get("r0", 0.4))
    n, e1, e2 = chart.frame
    # graph half-plane: the chart's inward t-axis first, then the boundary
    # tangent; u then measures deviation from orthogonality
    nearest = int(np.argmin(np.linalg.norm(geometry.vertices - p, axis=1)))
    nu = vertex_normals(geometry)[nearest]
    bt = np.cross(nu, n)
    bt /= np.linalg.norm(bt)
    w1 = np.array([-1.0, 0.0, 0.0])
    w2 = np.array([0.0, bt @ e1, bt @ e2])
    sample = graph_extract(chart, geometry, (w1, w2), GridSpec.default(chart.radius))
    res = neumann_residual(sample)
    return res <= 0.05, {
        "fermi.csv": sample.to_csv(),
        "fermi.json": {"neumann_residual": res, "sheet_count": sample.sheet_count},
    }


def _doubling(geometry, constraint, check, block):
    doubled = reflect_double(geometry, (block["plane_point"], block["plane_normal"]))
    H = mean_curvature_vector(doubled)
    interior = ~doubled.is_boundary_vertex()
    max_h = float(np.linalg.norm(H[interior], axis=1).max()) if interior.any() else 0.0
    return max_h <= 0.1, {
        "doubled.obj": doubled,
        "doubling.json": {"n_vertices": doubled.n_vertices,
                          "n_faces": len(doubled.faces),
                          "max_interior_H": max_h},
    }


def _base_point(value, polyline=False):
    """3 finite numbers, or 2 for a polyline, whose points may lie in the plane."""
    p = np.asarray(value, dtype=float)
    if (p.shape not in ([(2,), (3,)] if polyline else [(3,)]) or not np.isfinite(p).all()
            or not all(map(_is_number, value))):
        raise ValueError("base_point must be 3 finite numbers"
                         + (", or 2 for a polyline in the plane" if polyline else ""))
    return p


def _check_monotonicity(block, constraint, polyline):
    profile_arguments(constraint, _base_point(block["base_point"], polyline), block["radii"])


def _check_fermi(block, constraint, polyline):
    # fermi.build_chart: this module's binding is for the stage's call alone
    fermi.build_chart(constraint, _base_point(block["base_point"]), block.get("r0", 0.4))


def _check_doubling(block, constraint, polyline):
    Plane(block["plane_point"], block["plane_normal"])


# The pipeline in run order: (stage, its analysis block, stage function). The
# block is None for a stage with no analysis block (solve reads `solver`,
# verify always runs), bool for a true/false flag, and otherwise the keys
# the block must carry, the keys it may carry, and the check of its values
# that validation runs: check(block, constraint, whether the geometry is a
# polyline) raises ValueError or TypeError on a value the stage cannot use.
_STAGES = (
    ("solve", None, _solve),
    ("verify", None, _verify),
    ("stability", bool, _stability),
    ("monotonicity", (("base_point", "radii"), (), _check_monotonicity), _monotonicity),
    ("fermi", (("base_point",), ("r0",), _check_fermi), _fermi),
    ("doubling", (("plane_point", "plane_normal"), (), _check_doubling), _doubling),
)


def run_scenario(config: dict, out_dir) -> RunManifest:
    """Executes the enabled pipeline stages and writes per-stage reports."""
    return _run(*validate_config(config), out_dir)


def _clear_previous_run(out: Path):
    """Deletes an earlier run's listed outputs, OBJ sidecars, timings, failure report and bundle."""
    try:
        names = manifest_outputs(out / "manifest.json")
    except (OSError, ValueError):  # absent, unreadable, or not a manifest
        names = []
    names += [Path(n).with_suffix(".constrained.json").name for n in names if n.endswith(".obj")]
    for name in names + ["timings.json", "failure.json", "bundle.tar"]:
        (out / name).unlink(missing_ok=True)


def _run(config, geometry, out_dir) -> RunManifest:
    """run_scenario on a config and geometry that validate_config returned."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        version=__version__,
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        scenario=config["name"],
        scenario_hash=_config_hash(config),
        seed=config["seed"],
        expect=config.get("expect"),
    )
    stage = "setup"
    check = None  # the verify stage's result, reused by later stages
    try:
        _clear_previous_run(out)
        if geometry is None:
            geometry = _build_geometry(config["initial_mesh"])
        constraint = constraint_from_spec(config["constraint"])
        blocks = _blocks(config)
        runs = {name: run for name, _, run in _STAGES}
        for stage in _stages_run(config):
            t0 = time.perf_counter()
            passed, outputs = runs[stage](geometry, constraint, check, blocks[stage])
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            for name, output in outputs.items():
                manifest.outputs[name] = _write(out / name, output)
            manifest.stage_pass[stage] = bool(passed)
            # later stages read the solved mesh and the verify result
            geometry = outputs.get("final_mesh.obj", geometry)
            check = outputs.get("verify.json", check)
            if stage == "solve":
                manifest.solve_termination = outputs["solve.json"]["termination"]
    except Exception as exc:  # surfaced as a machine-readable failure report
        manifest.failure = {"stage": stage, "error": str(exc)}
        manifest.outputs["failure.json"] = _write(out / "failure.json", manifest.failure)

    _write(out / "manifest.json", manifest.to_json_dict())
    _write(out / "timings.json", {"stage_seconds": manifest.stage_seconds})
    return manifest
