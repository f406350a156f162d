"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import fbms.obj_io  # noqa: E402
import fbms.scenarios  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "a"),
        Span("child", 1.0, 4.0, 0, "a"),
        Span("leaf", 2.0, 3.0, 1, "a"),
        Span("child", 5.0, 7.0, 0, "a"),
        Span("late", 8.0, 9.5, 0, "a"),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2 - 1.5, 2.0, 1.0, 2.0, 1.5])
    only_child = self_times(spans, child_filter=lambda s: s.name == "child")
    assert only_child == pytest.approx([10 - 3 - 2, 3.0, 1.0, 2.0, 1.5])


def test_summary_counts_recursion_once():
    spans = [
        Span("f", 0.0, 4.0, -1, "a", {"n": 2}),
        Span("f", 1.0, 2.0, 0, "a", {"n": 3}),
        Span("g", 2.5, 3.0, 0, "a"),
    ]
    table = summarize(spans)
    assert table["f"]["calls"] == 2
    assert table["f"]["total_s"] == pytest.approx(4.0)
    assert table["f"]["self_s"] == pytest.approx(2.5 + 1.0)
    assert table["f"]["counts"] == {"n": 5}
    assert table["g"]["total_s"] == pytest.approx(0.5)


def test_metric_names_and_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    derived = set(tracing.layer_metrics([])) | {"process.cpu_s", "trace.overhead_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} == derived


def _enabled_stages(cfg):
    is_mesh = "polyline" not in cfg["initial_mesh"]
    stages = {"solve"} if cfg.get("solver") is not None and is_mesh else set()
    if is_mesh:
        stages.add("verify")
    for stage in cfg.get("analysis", {}):
        if stage == "monotonicity" or is_mesh:
            stages.add(stage)
    return stages


def test_outcome_table_matches_catalog(monkeypatch):
    catalog = workloads.load_catalog()
    for name, cfg in catalog.items():
        declared = workloads.OUTCOMES[name]["stage_pass"]
        assert set(declared) == _enabled_stages(cfg), name

    real = fbms.scenarios.builtin_scenarios
    grown = lambda: {**real(), "new-scenario": {}}  # noqa: E731
    monkeypatch.setattr(fbms.scenarios, "builtin_scenarios", grown)
    with pytest.raises(RuntimeError, match="new-scenario"):
        workloads.load_catalog()
    shrunk = lambda: {k: v for k, v in real().items() if k != "disk-in-ball"}  # noqa: E731
    monkeypatch.setattr(fbms.scenarios, "builtin_scenarios", shrunk)
    with pytest.raises(RuntimeError, match="disk-in-ball"):
        workloads.load_catalog()


@pytest.mark.parametrize("workload", ["catalog", "catenoid-solve"])
def test_seed_zero_regenerates_builtin_inputs(tmp_path, workload):
    catalog = fbms.scenarios.builtin_scenarios()
    for path in workloads.write_inputs(workload, 0, tmp_path):
        cfg = json.loads(path.read_text())
        builtin = catalog[cfg["name"]]
        spec = builtin["initial_mesh"]
        assert {k: v for k, v in cfg.items() if k != "initial_mesh"} == \
            {k: v for k, v in json.loads(json.dumps(builtin)).items()
             if k != "initial_mesh"}
        if "polyline" in spec:
            assert cfg["initial_mesh"] == spec
            continue
        got = fbms.obj_io.read_obj(tmp_path / cfg["initial_mesh"]["obj"])
        want = workloads._sampler(spec["builtin"])(**spec.get("params", {}))
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces)
        assert np.array_equal(got.constrained, want.constrained)


def test_nonzero_seed_is_a_rotation_about_z(tmp_path):
    rot = workloads.rotation(5)
    assert np.allclose(rot @ rot.T, np.eye(3)) and rot[2, 2] == 1.0
    assert not np.allclose(rot, np.eye(3))
    (path,) = workloads.write_inputs("stability-fermi", 5, tmp_path)
    cfg = json.loads(path.read_text())
    assert cfg["analysis"]["fermi"]["base_point"] == pytest.approx(list(rot[:, 0]))
    got = fbms.obj_io.read_obj(tmp_path / cfg["initial_mesh"]["obj"])
    spec = workloads.stability_config(fbms.scenarios.builtin_scenarios())["initial_mesh"]
    want = workloads._sampler(spec["builtin"])(**spec["params"])
    assert np.allclose(got.vertices, want.vertices @ rot.T, atol=1e-15)


def test_tracer_restores_every_binding():
    import fbms.variation

    modules = [sys.modules[m] for m in tracing.MODULES + ("fbms._kernels",)]
    before = [dict(vars(m)) for m in modules]
    method = vars(fbms.mesh.TriangleMesh)["boundary_edges"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fbms.variation.total_area is not before[2]["total_area"]
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert vars(fbms.mesh.TriangleMesh)["boundary_edges"] is method


def test_disk_eigenvalue_oracle():
    from scipy.special import i0, i1

    lam = workloads.disk_lambda_min()
    x = np.sqrt(-lam)
    assert x * i1(x) / i0(x) == pytest.approx(1.0, abs=1e-12)
    assert lam == pytest.approx(-2.58656, abs=1e-5)
