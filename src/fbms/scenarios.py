"""Scenario library and the report-producing pipeline behind the CLI.

A scenario bundles an initial geometry, a constraint, solver parameters, and
analysis toggles into a versioned JSON config. The pipeline runs the enabled
stages in fixed order (solve, verify, stability, monotonicity, fermi,
doubling) and writes one deterministic report file per stage. An optional
`expect` block declares the outcome a scenario is designed to have; without
one, every stage must pass.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .blowup import reflect_double
from .constraints import constraint_from_spec
from .fermi import GridSpec, build_chart, graph_extract, neumann_residual
from .mesh import mean_curvature_vector, vertex_normals
from .monotonicity import (
    Polyline,
    check_monotonicity,
    default_radius_grid,
    density_profile,
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
from .variation import SolveParams, solve_minimal, verify_minimal

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    pass


def perturbed_critical_catenoid(nt=64, ntheta=64, amplitude=0.005, mode=3):
    """Critical catenoid with a banded normal perturbation away from the
    boundary rings and the waist (keeps the descent inside the basin where
    the boundary rings stay well shaped)."""
    mesh = critical_catenoid(nt, ntheta)
    v = mesh.vertices
    bnd = mesh.is_boundary_vertex()
    zb = float(np.abs(v[bnd][:, 2]).max())
    theta = np.arctan2(v[:, 1], v[:, 0])
    window = np.exp(-(((np.abs(v[:, 2]) - 0.3 * zb) / (0.15 * zb)) ** 2))
    f = amplitude * np.cos(mode * theta) * window
    f[bnd] = 0.0
    n = vertex_normals(mesh).values
    return mesh.with_vertices(v + f[:, None] * n)


_BUILTIN_SAMPLERS = {
    "strip_on_plane": strip_on_plane,
    "halfplane_patch": halfplane_patch,
    "disk": disk,
    "critical_catenoid": critical_catenoid,
    "perturbed_critical_catenoid": perturbed_critical_catenoid,
    "half_catenoid": half_catenoid,
    "spherical_cap_graph": spherical_cap_graph,
}


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
_ANALYSIS_KEYS = {"stability", "monotonicity", "fermi", "doubling"}
# keys each analysis block must carry: its stage reads them without a default
_ANALYSIS_REQUIRED = {
    "monotonicity": ("base_point", "radii"),
    "fermi": ("base_point",),
    "doubling": ("plane_point", "plane_normal"),
}


def _check_builds(what, build, spec):
    """Builds a nested spec with its own constructor, as a stage would."""
    try:
        build(spec)
    except KeyError as exc:
        raise ScenarioError(f"{what} is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from None


def _stages_run(config):
    """The stages run_scenario runs for a config, in pipeline order; a
    polyline takes only the monotonicity stage, and builtin and OBJ meshes
    are triangle meshes."""
    analysis = config.get("analysis", {})
    runs = {
        "solve": config.get("solver") is not None,
        "verify": True,
        "stability": bool(analysis.get("stability")),
        "monotonicity": "monotonicity" in analysis,
        "fermi": "fermi" in analysis,
        "doubling": "doubling" in analysis,
    }
    is_mesh = "polyline" not in config["initial_mesh"]
    return [s for s, on in runs.items() if on and (is_mesh or s == "monotonicity")]


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
            or not isinstance(solve["termination"], str)):
        raise ScenarioError('expect.solve must be {"termination": <string>}')


def validate_config(config: dict) -> dict:
    """Fail-closed schema check; returns a deep copy with defaults filled."""
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
    mesh_spec = config["initial_mesh"]
    if not isinstance(mesh_spec, dict):
        raise ScenarioError("initial_mesh must be an object")
    kinds = set(mesh_spec) & {"builtin", "obj", "polyline"}
    if len(kinds) != 1:
        raise ScenarioError("initial_mesh needs exactly one of builtin/obj/polyline")
    extra = set(mesh_spec) - {"builtin", "obj", "polyline", "params"}
    if extra:
        raise ScenarioError(f"unknown initial_mesh keys: {sorted(extra)}")
    if "builtin" in mesh_spec and mesh_spec["builtin"] not in _BUILTIN_SAMPLERS:
        raise ScenarioError(f"unknown builtin sampler {mesh_spec['builtin']!r}")
    if "obj" in mesh_spec and not Path(mesh_spec["obj"]).exists():
        raise ScenarioError(f"mesh file not found: {mesh_spec['obj']}")
    analysis = config.get("analysis", {})
    if not isinstance(analysis, dict):
        raise ScenarioError("analysis must be an object")
    bad = set(analysis) - _ANALYSIS_KEYS
    if bad:
        raise ScenarioError(f"unknown analysis keys: {sorted(bad)}")
    for key, required in _ANALYSIS_REQUIRED.items():
        if key not in analysis:
            continue
        if not isinstance(analysis[key], dict):
            raise ScenarioError(f"analysis.{key} must be an object")
        missing = [r for r in required if r not in analysis[key]]
        if missing:
            raise ScenarioError(f"analysis.{key} is missing {missing}")
    _check_builds("constraint", constraint_from_spec, config["constraint"])
    if config.get("solver") is not None:
        _check_builds("solver", lambda spec: SolveParams(**spec), config["solver"])
    if "expect" in config:
        _validate_expect(config["expect"], _stages_run(config))
    out = copy.deepcopy(config)
    out.setdefault("seed", 0)
    out.setdefault("solver", None)
    out.setdefault("analysis", {})
    return out


def _build_geometry(spec):
    if "builtin" in spec:
        return _BUILTIN_SAMPLERS[spec["builtin"]](**spec.get("params", {}))
    if "obj" in spec:
        return read_obj(spec["obj"])
    return Polyline(np.asarray(spec["polyline"], dtype=float))


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
    out_dir: str
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

    def to_json_dict(self, with_timings=True):
        d = {
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
        if with_timings:
            d["stage_seconds"] = dict(sorted(self.stage_seconds.items()))
        return d


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def run_scenario(config: dict, out_dir) -> RunManifest:
    """Executes the enabled pipeline stages and writes per-stage reports."""
    config = validate_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        version=__version__,
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        scenario=config["name"],
        scenario_hash=_config_hash(config),
        seed=config["seed"],
        out_dir=str(out),
        expect=config.get("expect"),
    )
    stage = "setup"
    check = None  # the verify stage's result, reused by later stages
    try:
        geometry = _build_geometry(config["initial_mesh"])
        constraint = constraint_from_spec(config["constraint"])
        analysis = config["analysis"]
        stages = _stages_run(config)

        if "solve" in stages:
            stage = "solve"
            t0 = time.perf_counter()
            params = SolveParams(**config["solver"])
            report = solve_minimal(geometry, constraint, params)
            geometry = report.final_mesh
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            manifest.outputs["solve.json"] = _write(
                out / "solve.json", _json_dump(report.summary_dict())
            )
            manifest.stage_pass[stage] = bool(report.converged)
            manifest.solve_termination = report.termination
            write_obj(geometry, out / "final_mesh.obj")
            manifest.outputs["final_mesh.obj"] = hashlib.sha256(
                (out / "final_mesh.obj").read_bytes()
            ).hexdigest()

        if "verify" in stages:
            stage = "verify"
            t0 = time.perf_counter()
            check = verify_minimal(geometry, constraint)
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            manifest.outputs["verify.json"] = _write(
                out / "verify.json", _json_dump(check)
            )
            manifest.stage_pass[stage] = bool(check["passes"])

        if "stability" in stages:
            stage = "stability"
            t0 = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = is_stable(geometry, constraint, check=check)
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            stability = report.to_json_dict()
            stability["warnings"] = [str(w.message) for w in caught]
            manifest.outputs["stability.json"] = _write(
                out / "stability.json", _json_dump(stability)
            )
            # the stage passes when the residual measured on the returned pair
            # is small; stability itself is a finding, not a failure
            manifest.stage_pass[stage] = bool(report.residual <= 1e-8)

        if "monotonicity" in stages:
            stage = "monotonicity"
            t0 = time.perf_counter()
            spec = analysis["monotonicity"]
            profile = density_profile(
                geometry, constraint, np.asarray(spec["base_point"], dtype=float),
                spec["radii"], check=check,
            )
            mono = check_monotonicity(profile)
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            manifest.outputs["density.csv"] = _write(
                out / "density.csv", profile.to_csv()
            )
            manifest.outputs["density.json"] = _write(
                out / "density.json", _json_dump(
                    {"profile": profile.to_json_dict(),
                     "check": mono.to_json_dict()}
                )
            )
            manifest.stage_pass[stage] = bool(mono.passed)

        if "fermi" in stages:
            stage = "fermi"
            t0 = time.perf_counter()
            spec = analysis["fermi"]
            p = np.asarray(spec["base_point"], dtype=float)
            chart = build_chart(constraint, p, spec.get("r0", 0.4))
            n, e1, e2 = chart.frame
            # graph half-plane: the chart's inward t-axis first, then the
            # boundary tangent; u then measures deviation from orthogonality
            nearest = int(np.argmin(np.linalg.norm(geometry.vertices - p, axis=1)))
            nu = vertex_normals(geometry).values[nearest]
            bt = np.cross(nu, n)
            bt /= np.linalg.norm(bt)
            w1 = np.array([-1.0, 0.0, 0.0])
            w2 = np.array([0.0, bt @ e1, bt @ e2])
            gs = GridSpec.default(chart.radius)
            sample = graph_extract(chart, geometry, (w1, w2), gs)
            res = neumann_residual(sample)
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            manifest.outputs["fermi.csv"] = _write(out / "fermi.csv", sample.to_csv())
            manifest.outputs["fermi.json"] = _write(
                out / "fermi.json", _json_dump(
                    {"neumann_residual": res, "sheet_count": sample.sheet_count}
                )
            )
            manifest.stage_pass[stage] = bool(res <= 0.05)

        if "doubling" in stages:
            stage = "doubling"
            t0 = time.perf_counter()
            spec = analysis["doubling"]
            doubled = reflect_double(
                geometry,
                (np.asarray(spec["plane_point"], dtype=float),
                 np.asarray(spec["plane_normal"], dtype=float)),
            )
            H = mean_curvature_vector(doubled).values
            interior = ~doubled.is_boundary_vertex()
            max_h = float(np.linalg.norm(H[interior], axis=1).max()) if interior.any() else 0.0
            manifest.stage_seconds[stage] = time.perf_counter() - t0
            write_obj(doubled, out / "doubled.obj")
            manifest.outputs["doubled.obj"] = hashlib.sha256(
                (out / "doubled.obj").read_bytes()
            ).hexdigest()
            manifest.outputs["doubling.json"] = _write(
                out / "doubling.json", _json_dump(
                    {"n_vertices": doubled.n_vertices,
                     "n_faces": len(doubled.faces),
                     "max_interior_H": max_h}
                )
            )
            manifest.stage_pass[stage] = bool(max_h <= 0.1)
    except Exception as exc:  # surfaced as a machine-readable failure report
        manifest.failure = {"stage": stage, "error": str(exc)}
        manifest.outputs["failure.json"] = _write(
            out / "failure.json", _json_dump(manifest.failure)
        )

    _write(out / "manifest.json", _json_dump(manifest.to_json_dict(with_timings=False)))
    _write(out / "timings.json", _json_dump(
        {"stage_seconds": manifest.stage_seconds}
    ))
    return manifest
