"""Scenario configs, the run pipeline, and the command line front end."""

import csv
import json
import tarfile

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
from fbms.obj_io import write_obj
from fbms.samplers import disk
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
    out = validate_config(cfg)
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
    # the strip's grid corners have two neighbors: |A|^2 is unreliable there
    run_scenario(_strip_config(), tmp_path / "strip")
    stability = json.loads((tmp_path / "strip" / "stability.json").read_text())
    assert stability["warnings"] == ["unreliable |A|^2 at vertices [12, 156]"]
    cfg = builtin_scenarios()["disk-in-ball"]
    cfg = dict(cfg, solver=None, analysis={"stability": True},
               initial_mesh={"builtin": "spherical_cap_graph", "params": {"bulge": 0.1}})
    run_scenario(cfg, tmp_path / "cap")
    stability = json.loads((tmp_path / "cap" / "stability.json").read_text())
    assert [w.split(" (")[0] for w in stability["warnings"]] == [
        "mesh does not verify as minimal"]


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


def test_run_scenario_polyline_oracle(tmp_path):
    man = run_scenario(builtin_scenarios()["radial-segment-k1"],
                       tmp_path / "seg")
    assert man.all_passed()
    payload = json.loads((tmp_path / "seg" / "density.json").read_text())
    assert payload["check"]["passed"] is True
    assert payload["profile"]["constants"]["k"] == 1.0


def test_run_scenario_surfaces_stage_failure(tmp_path):
    cfg = json.loads(json.dumps(builtin_scenarios()["radial-segment-k1"]))
    cfg["analysis"]["monotonicity"]["radii"] = [0.1, 0.6]  # beyond R0/2
    man = run_scenario(cfg, tmp_path / "bad")
    assert not man.all_passed()
    assert man.failure["stage"] == "monotonicity"
    assert "R0/2" in man.failure["error"]
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
BAD_CONFIGS = {
    "solver-key": dict(_STRIP, solver={"max_iterations": 10, "max_iters": 5}),
    # max_iterations is the one solver setting; the descent's others are fixed
    "solver-removed-key": dict(_STRIP, solver={"step_init": 1}),
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
    "expect-solve-no-solver": dict(_STRIP, solver=None, expect={
        "stage_pass": _without(_STRIP_RUNS, "solve"),
        "solve": {"termination": "stationary"}}),
    # a polyline runs only the monotonicity stage, with or without a solver
    "expect-polyline-solve": dict(_SEGMENT, solver={"max_iterations": 10}, expect={
        "stage_pass": {"monotonicity": True, "solve": True}}),
    "expect-polyline-termination": dict(_SEGMENT, solver={"max_iterations": 10},
                                        expect={"stage_pass": {"monotonicity": True},
                                                "solve": {"termination": "stationary"}}),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_run_rejects_bad_nested_config(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CONFIGS[case]))
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]
    assert not out.exists()


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
