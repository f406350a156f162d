"""Scenario configs, the run pipeline, and the command line front end."""

import csv
import functools
import importlib.util
import json
import tarfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import fbms.mesh
import fbms.monotonicity
import fbms.scenarios
import fbms.stability
import fbms.variation
from fbms.cli import emit_report_bundle
from fbms.cli import main as cli_main
from fbms.mesh import TriangleMesh
from fbms.obj_io import write_obj
from fbms.samplers import disk, halfplane_patch
from fbms.scenarios import (
    ScenarioError,
    builtin_scenarios,
    run_scenario,
    validate_config,
)


def _strip_config():
    return builtin_scenarios()["strip-on-plane"]


def test_builtin_catalog_is_valid_and_ordered():
    catalog = builtin_scenarios()
    assert list(catalog) == [
        "strip-on-plane",
        "disk-in-ball",
        "catenoid-in-ball",
        "half-catenoid-double",
        "graph-over-disk",
        "halfplane-monotone",
        "radial-segment-k1",
    ]
    for name, cfg in catalog.items():
        assert cfg["name"] == name
        validate_config(cfg)


def test_validate_config_fails_closed():
    base = _strip_config()
    bad = dict(base, typo_key=1)
    with pytest.raises(ScenarioError, match="unknown config keys"):
        validate_config(bad)
    with pytest.raises(ScenarioError, match="schema_version"):
        validate_config(dict(base, schema_version=99))
    missing = {k: v for k, v in base.items() if k != "name"}
    with pytest.raises(ScenarioError, match="missing required key"):
        validate_config(missing)
    both = dict(base, initial_mesh={"builtin": "disk", "polyline": [[0, 0, 0], [1, 0, 0]]})
    with pytest.raises(ScenarioError, match="exactly one"):
        validate_config(both)
    with pytest.raises(ScenarioError, match="unknown builtin sampler"):
        validate_config(dict(base, initial_mesh={"builtin": "moebius"}))
    with pytest.raises(ScenarioError, match="unknown analysis keys"):
        validate_config(dict(base, analysis={"spectral_flow": True}))
    with pytest.raises(ScenarioError, match="not found"):
        validate_config(dict(base, initial_mesh={"obj": "/nonexistent/mesh.obj"}))


def test_validate_config_fills_defaults():
    cfg = {
        "schema_version": 1,
        "name": "bare",
        "initial_mesh": {"builtin": "strip_on_plane"},
        "constraint": {"type": "plane", "point": [0, 0, 0], "normal": [1, 0, 0]},
    }
    out, mesh = validate_config(cfg)
    assert mesh.n_vertices == 81  # the strip it built, handed on to the run
    assert out["seed"] == 0
    assert out["solver"] is None
    assert out["analysis"] == {}
    assert "solver" not in cfg  # the input object is left untouched


def test_run_scenario_strip_pipeline(tmp_path):
    man = run_scenario(_strip_config(), tmp_path / "strip")
    assert man.all_passed()
    assert man.failure is None
    for name in ("solve.json", "final_mesh.obj", "verify.json",
                 "stability.json", "doubled.obj", "doubling.json"):
        assert name in man.outputs
        assert (tmp_path / "strip" / name).exists()
    assert "timings.json" not in man.outputs
    assert (tmp_path / "strip" / "timings.json").exists()
    manifest = json.loads((tmp_path / "strip" / "manifest.json").read_text())
    assert manifest["scenario"] == "strip-on-plane"
    assert "stage_seconds" not in manifest
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__
    stability = json.loads((tmp_path / "strip" / "stability.json").read_text())
    assert stability["stable"] is True


FAST_SCENARIOS = ("strip-on-plane", "disk-in-ball", "half-catenoid-double",
                  "halfplane-monotone", "radial-segment-k1")


def test_report_files_parse(tmp_path):
    catalog = builtin_scenarios()
    for name in FAST_SCENARIOS:
        out = tmp_path / name
        assert run_scenario(catalog[name], out).all_passed()
        for path in out.glob("*.csv"):
            rows = list(csv.reader(path.read_text().splitlines()))
            assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows)
            for row in rows[1:]:
                [float(x) for x in row if x != ""]
        for path in out.glob("*.json"):
            json.loads(path.read_text())
    assert (tmp_path / "disk-in-ball" / "density.csv").exists()


def test_stability_warnings_are_recorded(tmp_path):
    run_scenario(_strip_config(), tmp_path / "strip")
    stability = json.loads((tmp_path / "strip" / "stability.json").read_text())
    assert stability["warnings"] == []
    cfg = builtin_scenarios()["disk-in-ball"]
    cfg = dict(cfg, solver=None, analysis={"stability": True},
               initial_mesh={"builtin": "spherical_cap_graph", "params": {"bulge": 0.1}})
    run_scenario(cfg, tmp_path / "cap")
    stability = json.loads((tmp_path / "cap" / "stability.json").read_text())
    # the report says what it approximated on a mesh that is not minimal
    (warning,) = stability["warnings"]
    assert warning.startswith("mesh does not verify as minimal (")
    assert warning.endswith("with |H|^2 taken as 0 on the boundary in |A|^2 = |H|^2 - 2K")


def test_disk_in_ball_builds_one_laplacian(tmp_path, monkeypatch):
    # verify, the stability form and the density profile's re-verify all
    # read the final mesh's one cotangent Laplacian
    built = []
    assemble = fbms.mesh._assemble_laplacian
    monkeypatch.setattr(fbms.mesh, "_assemble_laplacian",
                        lambda mesh: built.append(mesh) or assemble(mesh))
    man = run_scenario(builtin_scenarios()["disk-in-ball"], tmp_path / "disk")
    assert man.all_passed()
    assert set(man.stage_pass) >= {"verify", "stability", "monotonicity"}
    assert len(built) == 1


def _count_builds(monkeypatch, name):
    """The meshes whose cached property `name` is computed, once per build."""
    built = []
    cached = vars(TriangleMesh)[name]
    counting = functools.cached_property(lambda mesh: built.append(mesh) or cached.func(mesh))
    counting.__set_name__(TriangleMesh, name)
    monkeypatch.setattr(TriangleMesh, name, counting)
    return built


def test_disk_in_ball_builds_each_mesh_quantity_once(tmp_path, monkeypatch):
    # verify's conormals, the |A|^2 fit, the boundary second form and the
    # Fermi stage all read the one mesh's vertex normals; verify's max|H| and
    # the stability form read its vertex areas
    names = ("topology", "_frame", "_vertex_areas", "_normals", "_laplacian")
    built = {name: _count_builds(monkeypatch, name) for name in names}
    cfg = dict(builtin_scenarios()["disk-in-ball"], solver=None)
    man = run_scenario(cfg, tmp_path / "disk")
    assert man.all_passed()
    assert set(man.stage_pass) == {"verify", "stability", "monotonicity", "fermi"}
    assert {name: len(meshes) for name, meshes in built.items()} == dict.fromkeys(names, 1)


def test_disk_in_ball_verifies_once(tmp_path, monkeypatch):
    # the stability form and the density profile take the verify stage's
    # result; every module that binds verify_minimal counts into one list
    calls = []
    verify = fbms.variation.verify_minimal
    for module in (fbms.scenarios, fbms.stability, fbms.monotonicity):
        monkeypatch.setattr(module, "verify_minimal",
                            lambda *a, **k: calls.append(a[0]) or verify(*a, **k))
    man = run_scenario(builtin_scenarios()["disk-in-ball"], tmp_path / "disk")
    assert man.all_passed()
    assert set(man.stage_pass) >= {"verify", "stability", "monotonicity"}
    assert len(calls) == 1


STAGE_CALLEES = ("solve_minimal", "verify_minimal", "is_stable", "density_profile",
                 "check_monotonicity", "build_chart", "graph_extract",
                 "neumann_residual", "reflect_double", "mean_curvature_vector")


def test_stages_call_through_module_names(tmp_path, monkeypatch):
    # a wrapper installed on fbms.scenarios sees every stage's library call,
    # as the benchmark's tracer needs for its stage spans
    calls = dict.fromkeys(STAGE_CALLEES, 0)
    for name in STAGE_CALLEES:
        fn = getattr(fbms.scenarios, name)

        def counted(*a, _name=name, _fn=fn, **k):
            calls[_name] += 1
            return _fn(*a, **k)

        monkeypatch.setattr(fbms.scenarios, name, counted)
    for scenario in ("disk-in-ball", "strip-on-plane"):
        man = run_scenario(builtin_scenarios()[scenario], tmp_path / scenario)
        assert man.all_passed()
    assert [name for name, n in calls.items() if n == 0] == []


def test_obj_input_reports_match_builtin(tmp_path):
    cfg = builtin_scenarios()["disk-in-ball"]
    write_obj(disk(**cfg["initial_mesh"]["params"]), tmp_path / "disk.obj")
    run_scenario(cfg, tmp_path / "builtin")
    run_scenario(dict(cfg, initial_mesh={"obj": str(tmp_path / "disk.obj")}),
                 tmp_path / "obj")
    for name in ("final_mesh.obj", "verify.json", "stability.json", "density.json"):
        builtin = (tmp_path / "builtin" / name).read_bytes()
        assert (tmp_path / "obj" / name).read_bytes() == builtin, name


def test_unit_ellipsoid_reports_match_sphere(tmp_path):
    # the unit sphere written as an ellipsoid declares the same reach, so
    # every stage, monotonicity and Fermi included, writes the same bytes
    cfg = builtin_scenarios()["disk-in-ball"]
    ellipsoid = {"type": "ellipsoid", "center": [0, 0, 0], "semi_axes": [1, 1, 1]}
    sphere = run_scenario(cfg, tmp_path / "sphere")
    man = run_scenario(dict(cfg, constraint=ellipsoid), tmp_path / "ellipsoid")
    assert man.all_passed()
    assert man.stage_pass == sphere.stage_pass
    assert set(man.outputs) == set(sphere.outputs)
    assert set(man.outputs) >= {"density.json", "fermi.json", "stability.json"}
    for name in man.outputs:
        want = (tmp_path / "sphere" / name).read_bytes()
        assert (tmp_path / "ellipsoid" / name).read_bytes() == want, name


def test_malformed_obj_fails_setup_with_file_line(tmp_path):
    path = tmp_path / "mesh.obj"
    path.write_text("v 0 0 0\nv 1 0 0\n# corrupted\nv 0 1 abc\nf 1 2 3\n")
    cfg = dict(builtin_scenarios()["halfplane-monotone"], initial_mesh={"obj": str(path)})
    man = run_scenario(cfg, tmp_path / "out")
    failure = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert failure == {"stage": "setup", "error": "mesh.obj:4: could not convert 'abc'"}
    assert man.failure == failure and man.stage_pass == {}


def test_non_finite_geometry_fails_setup(tmp_path):
    obj = tmp_path / "mesh.obj"
    obj.write_text("v 0 0 0\nv 1 0 nan\nv 0 1 0\nf 1 2 3\n")
    man = run_scenario(dict(_DISK, initial_mesh={"obj": str(obj)}), tmp_path / "obj")
    assert man.failure == {"stage": "setup", "error": "non-finite coordinates at vertices [1]"}
    assert man.stage_pass == {}
    # a builtin sampler's non-finite param fails validation, before any output
    nan_disk = {"builtin": "disk", "params": {"radius": float("nan"), "n_radial": 1,
                                              "n_angular": 3}}
    with pytest.raises(ScenarioError, match=r"params \['radius'\] must be finite"):
        run_scenario(dict(_DISK, initial_mesh=nan_disk), tmp_path / "disk")
    assert not (tmp_path / "disk").exists()


def test_obj_vertex_without_face_fails_verify(tmp_path):
    patch = halfplane_patch(4)
    lone = TriangleMesh(np.vstack([patch.vertices, [[5.0, 5.0, 0.0]]]), patch.faces,
                        np.append(patch.constrained, False))
    write_obj(lone, tmp_path / "mesh.obj")
    cfg = dict(builtin_scenarios()["halfplane-monotone"],
               initial_mesh={"obj": str(tmp_path / "mesh.obj")})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        man = run_scenario(cfg, tmp_path / "out")
    assert caught == []
    assert man.failure == {"stage": "verify", "error": (
        f"zero lumped area at vertices [{patch.n_vertices}]: "
        "no face of positive area uses them")}


def test_run_scenario_polyline_oracle(tmp_path):
    man = run_scenario(builtin_scenarios()["radial-segment-k1"],
                       tmp_path / "seg")
    assert man.all_passed()
    payload = json.loads((tmp_path / "seg" / "density.json").read_text())
    assert payload["check"]["passed"] is True
    assert payload["profile"]["constants"]["k"] == 1.0


def test_planar_polyline_config_matches_its_copy_in_space(tmp_path):
    # a polyline config may give its points and base point in the plane z = 0
    cfg = builtin_scenarios()["radial-segment-k1"]
    mono = dict(cfg["analysis"]["monotonicity"], base_point=[1.0, 0.0])
    planar = dict(cfg, initial_mesh={"polyline": [[0.0, 0.0], [1.0, 0.0]]},
                  analysis={"monotonicity": mono})
    assert run_scenario(planar, tmp_path / "plane").all_passed()
    run_scenario(cfg, tmp_path / "space")
    for name in ("density.json", "density.csv"):
        assert (tmp_path / "plane" / name).read_bytes() == (tmp_path / "space" / name).read_bytes()


def test_run_scenario_surfaces_stage_failure(tmp_path):
    # a doubling plane that misses the seam is a valid plane, so only the
    # stage finds the fault
    cfg = json.loads(json.dumps(builtin_scenarios()["half-catenoid-double"]))
    cfg["analysis"]["doubling"]["plane_point"] = [0, 0, 0.5]
    man = run_scenario(cfg, tmp_path / "bad")
    assert not man.all_passed()
    assert man.failure["stage"] == "doubling"
    assert "boundary not on plane" in man.failure["error"]
    failure = json.loads((tmp_path / "bad" / "failure.json").read_text())
    assert failure == man.failure


def test_cli_list_is_deterministic(capsys):
    assert cli_main(["list"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["list"]) == 0
    assert capsys.readouterr().out == first
    assert "strip-on-plane" in first
    declared = json.dumps(builtin_scenarios()["graph-over-disk"]["expect"],
                          sort_keys=True)
    [line] = [ln for ln in first.splitlines() if ln.startswith("graph-over-disk")]
    assert line.endswith(f"expect: {declared}")
    # the stages each scenario runs, in pipeline order, verify included
    stages = {ln.split()[0]: ln.split("stages: ")[1].split()[0]
              for ln in first.splitlines()}
    assert stages["disk-in-ball"] == "solve+verify+stability+monotonicity+fermi"
    assert stages["half-catenoid-double"] == "verify+doubling"
    assert stages["radial-segment-k1"] == "monotonicity"


def test_cli_run_unknown_scenario(tmp_path, capsys):
    code = cli_main(["run", "no-such-thing", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "no builtin scenario" in err


def test_cli_run_and_bundle_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["run", "strip-on-plane", "--out", str(out_a)]) == 0
    assert cli_main(["run", "strip-on-plane", "--out", str(out_b)]) == 0
    capsys.readouterr()
    bundle_a = emit_report_bundle(out_a / "strip-on-plane" / "manifest.json")
    bundle_b = emit_report_bundle(out_b / "strip-on-plane" / "manifest.json")
    assert bundle_a.read_bytes() == bundle_b.read_bytes()
    with tarfile.open(bundle_a) as tar:
        names = tar.getnames()
        infos = tar.getmembers()
    assert names[0] == "manifest.json"
    assert "timings.json" not in names
    assert names[1:] == sorted(names[1:])
    assert all(i.mtime == 0 and i.uid == 0 and i.mode == 0o644 for i in infos)


@pytest.mark.parametrize("manifest", ["[1]", '{"outputs": 5}', '{"outputs": [1]}',
                                      '{"outputs": ["solve.json", ["verify.json"]]}', "{}",
                                      '{"outputs": ["../secret.txt"]}', '{"outputs": [".."]}',
                                      '{"outputs": [""]}'])
def test_cli_bundle_rejects_a_manifest_without_output_names(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    assert cli_main(["bundle", str(path)]) == 2
    assert "outputs must name" in json.loads(capsys.readouterr().err)["error"]
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_cli_bundle_reports_missing_outputs(tmp_path, capsys):
    assert cli_main(["run", "strip-on-plane", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    target = tmp_path / "strip-on-plane"
    (target / "doubled.obj").unlink()
    assert cli_main(["bundle", str(target / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert "doubled.obj" in err


def _without(spec, key):
    return {k: v for k, v in spec.items() if k != key}


_DISK = builtin_scenarios()["disk-in-ball"]
_STRIP = builtin_scenarios()["strip-on-plane"]
_STRIP_RUNS = {"solve": True, "verify": True, "stability": True, "doubling": True}
_SEGMENT = builtin_scenarios()["radial-segment-k1"]
_GRAPH = builtin_scenarios()["graph-over-disk"]


def _disk_with(constraint=None, **analysis):
    """disk-in-ball with its constraint spec or analysis blocks changed."""
    return dict(_DISK, constraint=constraint or _DISK["constraint"],
                analysis=dict(_DISK["analysis"], **analysis))


def _mono(**values):
    """disk-in-ball's monotonicity block with some values changed."""
    return dict(_DISK["analysis"]["monotonicity"], **values)


BAD_CONFIGS = {
    "obj-directory": dict(_DISK, initial_mesh={"obj": str(Path(__file__).parent)}),
    "solver-key": dict(_STRIP, solver={"max_iterations": 10, "max_iters": 5}),
    # max_iterations is the one solver setting; the descent's others are fixed
    "solver-removed-key": dict(_STRIP, solver={"step_init": 1}),
    # an iteration count is an int, and a bool is not one
    "solver-iterations-fraction": dict(_STRIP, solver={"max_iterations": 2.5}),
    "solver-iterations-bool": dict(_STRIP, solver={"max_iterations": True}),
    "constraint-type": dict(_STRIP, constraint={"type": "cone", "apex": [0, 0, 0]}),
    "constraint-key": dict(_STRIP, constraint={"type": "sphere", "radius": 1.0}),
    "monotonicity-base": dict(_DISK, analysis={
        "monotonicity": _without(_DISK["analysis"]["monotonicity"], "base_point")}),
    "fermi-base": dict(_DISK, analysis={
        "fermi": _without(_DISK["analysis"]["fermi"], "base_point")}),
    "doubling-plane": dict(_STRIP, analysis={
        "doubling": _without(_STRIP["analysis"]["doubling"], "plane_normal")}),
    "expect-object": dict(_STRIP, expect=[True]),
    "expect-key": dict(_STRIP, expect={"stage_pass": _STRIP_RUNS, "stages": {}}),
    "expect-stage-pass": dict(_STRIP, expect={
        "solve": {"termination": "stationary"}}),
    "expect-unknown-stage": dict(_STRIP, expect={
        "stage_pass": dict(_STRIP_RUNS, solving=True)}),
    "expect-unrun-stage": dict(_STRIP, expect={
        "stage_pass": dict(_STRIP_RUNS, fermi=True)}),
    "expect-missing-stage": dict(_STRIP, expect={
        "stage_pass": _without(_STRIP_RUNS, "doubling")}),
    "expect-bool": dict(_STRIP, expect={"stage_pass": dict(_STRIP_RUNS, solve=1)}),
    "expect-solve-key": dict(_STRIP, expect={
        "stage_pass": _STRIP_RUNS, "solve": {"converged": True}}),
    "expect-solve-type": dict(_STRIP, expect={
        "stage_pass": _STRIP_RUNS, "solve": {"termination": False}}),
    # a termination the solver never reports
    "expect-solve-termination-typo": dict(_GRAPH, expect=dict(
        _GRAPH["expect"], solve={"termination": "max_iteration"})),
    "expect-solve-no-solver": dict(_STRIP, solver=None, expect={
        "stage_pass": _without(_STRIP_RUNS, "solve"),
        "solve": {"termination": "stationary"}}),
    # a polyline runs only the monotonicity stage, with or without a solver
    "expect-polyline-solve": dict(_SEGMENT, solver={"max_iterations": 10}, expect={
        "stage_pass": {"monotonicity": True, "solve": True}}),
    "expect-polyline-termination": dict(_SEGMENT, solver={"max_iterations": 10},
                                        expect={"stage_pass": {"monotonicity": True},
                                                "solve": {"termination": "stationary"}}),
    # constraint keys are the constructor's arguments, and `inside` is not
    # one: {phi < 0} is always the inside, so no value can flip A^N's sign
    "constraint-inside": _disk_with(dict(_DISK["constraint"], inside="positve_phi")),
    "constraint-unknown-key": _disk_with(dict(_DISK["constraint"], raduis=1.0)),
    "fermi-unknown-key": _disk_with(fermi=dict(_DISK["analysis"]["fermi"], r00=0.4)),
    "stability-object": _disk_with(stability={"x": 1}),
    "stability-number": _disk_with(stability=1),
    "sampler-param": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], n_radiall=20)}),
    "sampler-param-nan": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], radius=float("nan"))}),
    # a builtin mesh is built and checked before any stage runs
    "sampler-param-string": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], radius="1")}),
    "sampler-param-fraction": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], n_radial=2.5)}),
    "sampler-param-negative": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], n_radial=-3)}),
    "sampler-invalid-mesh": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], n_angular=2)}),
    "sampler-param-overflow": dict(_DISK, initial_mesh={
        "builtin": "disk", "params": dict(_DISK["initial_mesh"]["params"], radius=1e308)}),
    # degenerate primitives
    "sphere-radius-zero": _disk_with(dict(_DISK["constraint"], radius=0)),
    "sphere-radius-negative": _disk_with(dict(_DISK["constraint"], radius=-1)),
    "sphere-radius-inf": _disk_with(dict(_DISK["constraint"], radius=float("inf"))),
    "sphere-center-nan": _disk_with(dict(_DISK["constraint"], center=[float("nan"), 0, 0])),
    "plane-zero-normal": dict(_STRIP, constraint=dict(_STRIP["constraint"], normal=[0, 0, 0])),
    "ellipsoid-zero-axis": _disk_with({"type": "ellipsoid", "center": [0, 0, 0],
                                       "semi_axes": [1, 1, 0]}),
    "torus-self-intersecting": _disk_with({"type": "torus", "center": [0, 0, 0],
                                           "major_radius": 0.5, "minor_radius": 0.7}),
    "torus-zero-tube": _disk_with({"type": "torus", "center": [0, 0, 0],
                                   "major_radius": 2.0, "minor_radius": 0.0}),
    # the quadratic graph container was removed: its type is unknown
    "constraint-type-graph": _disk_with({"type": "graph",
                                         "coefficients": {"cxx": 0.2, "cx2": 1.0}}),
    # a constraint's numbers are JSON numbers, not strings or bools
    "sphere-radius-bool": _disk_with(dict(_DISK["constraint"], radius=True)),
    "sphere-radius-string": _disk_with(dict(_DISK["constraint"], radius="1")),
    "sphere-center-bool": _disk_with(dict(_DISK["constraint"], center=[False, 0, 0])),
    "plane-normal-strings": dict(_STRIP, constraint=dict(_STRIP["constraint"],
                                                         normal=["1", "0", "0"])),
    "doubling-plane-point-strings": dict(_STRIP, analysis=dict(_STRIP["analysis"], doubling=dict(
        _STRIP["analysis"]["doubling"], plane_point=["0", "0", "0"]))),
    # the name is the run's directory under --out: one path component
    "name-number": dict(_STRIP, name=5),
    "name-escapes-out": dict(_STRIP, name="../escaped"),
    "name-dot": dict(_STRIP, name="."),
    "name-backslash": dict(_STRIP, name="a\\b"),
    "builtin-list": dict(_STRIP, initial_mesh={"builtin": ["disk"]}),
    "obj-number": dict(_STRIP, initial_mesh={"obj": 5}),
    "polyline-one-point": dict(_SEGMENT, initial_mesh={"polyline": [[0.0, 0.0, 0.0]]}),
    "polyline-nan": dict(_SEGMENT, initial_mesh={
        "polyline": [[0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0]]}),
    # analysis values are checked before any stage runs
    "monotonicity-radii-string": _disk_with(monotonicity=_mono(radii="x")),
    "monotonicity-one-radius": _disk_with(monotonicity=_mono(radii=[0.1])),
    "monotonicity-radii-decreasing": _disk_with(monotonicity=_mono(radii=[0.2, 0.1])),
    "monotonicity-radius-zero": _disk_with(monotonicity=_mono(radii=[0.0, 0.1])),
    "monotonicity-radius-nan": _disk_with(monotonicity=_mono(radii=[0.1, float("nan")])),
    "monotonicity-base-2d": _disk_with(monotonicity=_mono(base_point=[1, 0])),
    "monotonicity-base-inf": _disk_with(monotonicity=_mono(base_point=[float("inf"), 0, 0])),
    # the monotonicity stage's own checks: a base point on N, and radii that
    # are numbers below half the reach R0 of N (R0 = 1 for the unit sphere)
    "monotonicity-base-off-sphere": _disk_with(monotonicity=_mono(base_point=[0.5, 0, 0])),
    "monotonicity-radius-beyond-half-reach": _disk_with(monotonicity=_mono(radii=[0.1, 0.6])),
    "monotonicity-radii-strings": _disk_with(monotonicity=_mono(radii=["0.1", "0.2"])),
    "segment-radius-beyond-half-reach": dict(_SEGMENT, analysis={"monotonicity": dict(
        _SEGMENT["analysis"]["monotonicity"], radii=[0.1, 0.6])}),
    "fermi-base-2d": _disk_with(fermi=dict(_DISK["analysis"]["fermi"], base_point=[1, 0])),
    "fermi-base-off-sphere": _disk_with(fermi=dict(_DISK["analysis"]["fermi"],
                                                   base_point=[0.5, 0, 0])),
    "fermi-r0-negative": _disk_with(fermi=dict(_DISK["analysis"]["fermi"], r0=-0.4)),
    # a base point and r0 are JSON numbers: float() would read a string or a bool
    "monotonicity-base-point-strings": _disk_with(monotonicity=_mono(base_point=["1", "0", "0"])),
    "fermi-base-point-strings": _disk_with(fermi=dict(_DISK["analysis"]["fermi"],
                                                      base_point=["1", "0", "0"])),
    "fermi-r0-string": _disk_with(fermi=dict(_DISK["analysis"]["fermi"], r0="0.4")),
    # True would read as r0 = 1, inside the reach of a plane
    "fermi-r0-bool": dict(_STRIP, analysis=dict(_STRIP["analysis"], fermi={
        "base_point": [0, 0, 0], "r0": True})),
    "doubling-zero-normal": dict(_STRIP, analysis=dict(_STRIP["analysis"], doubling={
        "plane_point": [0, 0, 0], "plane_normal": [0, 0, 0]})),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_run_rejects_bad_nested_config(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CONFIGS[case]))
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]  # nothing written


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_cli_run_rejects_an_unreadable_config(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "\xff"}')
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]  # nothing written


@pytest.mark.parametrize("case", ["file", "below-a-file", "run-directory-is-a-file"])
def test_cli_run_rejects_an_out_that_is_not_a_directory(tmp_path, capsys, case):
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = {"file": afile, "below-a-file": afile / "sub", "run-directory-is-a-file": tmp_path}[case]
    if case == "run-directory-is-a-file":
        (tmp_path / "strip-on-plane").write_text("kept")
    before = {p.name: p.read_text() for p in tmp_path.iterdir()}
    assert cli_main(["run", "radial-segment-k1", "strip-on-plane", "--out", str(out)]) == 2
    assert "not a directory" in json.loads(capsys.readouterr().err)["error"]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before  # nothing written


@pytest.mark.parametrize("case", ["two-files", "one-builtin-twice"])
def test_cli_run_rejects_two_configs_with_one_name(tmp_path, capsys, case):
    refs = ["strip-on-plane", "strip-on-plane"]
    if case == "two-files":
        refs = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        for ref in refs:
            Path(ref).write_text(json.dumps(dict(_strip_config(), name="same")))
    out = tmp_path / "out"
    assert cli_main(["run", *refs, "--out", str(out)]) == 2
    assert "share a name" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()  # nothing written


def test_cli_run_into_a_used_directory_leaves_only_its_own_outputs(tmp_path, capsys):
    # a second run into one run directory deletes the first run's outputs,
    # their OBJ sidecars, timings and bundle, and no other file
    assert cli_main(["run", "disk-in-ball", "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "disk-in-ball"
    emit_report_bundle(run_dir / "manifest.json")
    (run_dir / "notes.txt").write_text("kept")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(builtin_scenarios()["disk-in-ball"],
                                    analysis={"stability": True})))
    assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    outputs = json.loads((run_dir / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == ["final_mesh.obj", "solve.json", "stability.json", "verify.json"]
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(
        [*outputs, "final_mesh.constrained.json", "manifest.json", "notes.txt", "timings.json"])


def test_cli_run_builds_each_builtin_mesh_once(tmp_path, capsys, monkeypatch):
    # validation builds a builtin mesh, and the run takes that mesh
    built = []
    for name, sampler in fbms.scenarios._BUILTIN_SAMPLERS.items():
        monkeypatch.setitem(fbms.scenarios._BUILTIN_SAMPLERS, name,
                            lambda _name=name, _fn=sampler, **k: built.append(_name) or _fn(**k))
    catalog = builtin_scenarios()
    assert cli_main(["run", *catalog, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(built) == sorted(cfg["initial_mesh"]["builtin"] for cfg in catalog.values()
                                   if "builtin" in cfg["initial_mesh"])


def test_cli_run_has_no_jobs_option(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "strip-on-plane", "--jobs", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_whole_catalog_matches_declared_outcomes(tmp_path, capsys):
    catalog = builtin_scenarios()
    assert cli_main(["run", *catalog, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(catalog)
    # graph-over-disk escapes along the disk's unstable mode, as it declares
    assert [ln for ln in out if not ln.split(": ")[1].startswith("pass")] == [
        "graph-over-disk: as expected "
        "(stages: solve=False, stability=True, verify=False)"]


def test_perfbench_outcome_table_restates_each_builtin_expect():
    """perfbench declares each builtin's outcome again in
    `workloads.OUTCOMES`; it must say what the builtin's `expect` block says,
    or that every stage it runs passes where there is none. With the whole
    catalog run above, a solver change that would make the benchmark read
    incorrect fails here first."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    catalog = builtin_scenarios()
    assert set(workloads.OUTCOMES) == set(catalog)
    for name, cfg in catalog.items():
        declared = workloads.OUTCOMES[name]
        expect = cfg.get("expect", {})
        every_pass = dict.fromkeys(fbms.scenarios._stages_run(cfg), True)
        assert declared["stage_pass"] == expect.get("stage_pass", every_pass), name
        assert expect.get("solve", {}).items() <= declared.get("solve", {}).items(), name


WRONG_EXPECT = {
    "stage": {"stage_pass": dict(_STRIP_RUNS, solve=False)},
    "termination": {"stage_pass": _STRIP_RUNS,
                    "solve": {"termination": "max_iterations"}},
}


@pytest.mark.parametrize("case", sorted(WRONG_EXPECT))
def test_cli_run_exits_1_on_undeclared_outcome(tmp_path, capsys, case):
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(dict(_STRIP, expect=WRONG_EXPECT[case])))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("strip-on-plane: FAIL")
    assert "!= expected" in out


def test_cli_run_declared_pass_matches(tmp_path, capsys):
    expect = {"stage_pass": _STRIP_RUNS, "solve": {"termination": "stationary"}}
    path = tmp_path / "strip.json"
    path.write_text(json.dumps(dict(_STRIP, expect=expect)))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("strip-on-plane: pass")
