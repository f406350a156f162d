"""fbms benchmark: one workload through the public scenario pipeline.

    python3 perfbench/run.py --workload catalog --seed 3 --seconds 16 --trace 0

Run from the repository root; `fbms` is imported from `src/`. The workload's
inputs are generated from the seed and written under `.perfbench-out/`.
Passes over the workload repeat until `--seconds` would be exceeded, but
there are always at least two, so that every run compares bundles across
passes and takes a median; a workload whose pass is longer than half of
`--seconds` therefore overruns it. Every pass is checked for correctness and
its report bundles are compared byte for byte with the first pass.

With `--trace 0` the end-to-end metrics are printed. With `--trace 1` the
same command first runs untraced in a child process, then runs traced here
and prints the per-layer metrics, including the tracing overhead. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The metric names and units are the ones listed in BENCHMARK.json.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-threaded by design, and idle
# BLAS threads only add scheduling noise. Set before NumPy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7
MIN_PASSES = 2
SETUP_CODE = (
    "import time; t = time.perf_counter(); "
    "import fbms, fbms.scenarios, fbms.cli; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def machine_facts(seed):
    import numpy as np
    import scipy

    import fbms

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "clip_backend": getattr(fbms, "clip_backend", "n/a"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def measure_setup_s():
    """Median wall time of `import fbms` plus the pipeline's modules, each
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


def high_percentile(samples):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    best = None
    n = len(samples)
    for p in (50, 75, 90, 95, 99):
        if n - int(n * p / 100) >= 10 + 1:
            best = (p, sorted(samples)[int(n * p / 100)])
    return best


def run_passes(workloads, configs, seconds, tracer=None):
    """Repeats the workload until the next pass would overrun `seconds`,
    and at least MIN_PASSES times."""
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        out_root = Path(f"pass{k}")
        on_scenario = None
        if tracer is not None:
            def on_scenario(name, k=k):
                return tracer.span("scenario", scope=f"pass{k}/{name}")
        c0, t0 = time.process_time(), time.perf_counter()
        records = workloads.run_pass(configs, out_root, on_scenario)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        done = {"wall_s": wall, "cpu_s": cpu, "scenarios": {}}
        for rec in records:
            done["scenarios"][rec["name"]] = {
                "problems": workloads.check_record(rec),
                "bundle_sha256": rec.get("bundle_sha256"),
            }
        if tracer is not None:
            done["spans"], tracer.spans = tracer.spans, []
        shutil.rmtree(out_root, ignore_errors=True)
        passes.append(done)
        walls = [p["wall_s"] for p in passes]
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return passes


def tally(passes, reference=None):
    """attempted/failed over scenario runs and bundle comparisons, plus the
    problems found. Bundles of every pass must equal those of `reference`
    (default: the first pass)."""
    ref = reference or passes[0]["scenarios"]
    attempted = failed = 0
    problems = []
    for k, p in enumerate(passes):
        for name, s in p["scenarios"].items():
            attempted += 1
            if s["problems"]:
                failed += 1
                problems += [f"pass {k} {name}: {msg}" for msg in s["problems"]]
            if p["scenarios"] is ref:
                continue
            attempted += 1
            want = ref.get(name, {}).get("bundle_sha256")
            if s["bundle_sha256"] is None or want != s["bundle_sha256"]:
                failed += 1
                problems.append(f"pass {k} {name}: bundle.tar differs")
    return attempted, failed, problems


def untraced_child(args):
    """Runs the same workload and seed untraced in a fresh process; returns
    its last-line result and its first pass's bundle hashes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    bundles = next(json.loads(line)["bundles"] for line in lines
                   if line.startswith('{"bundles"'))
    return json.loads(lines[-1]), bundles


def execute(args, workloads):
    """Writes the inputs and runs the passes, traced when asked; returns
    the passes and the (uninstalled) tracer or None."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    cwd = Path.cwd()
    try:
        paths = workloads.write_inputs(args.workload, args.seed, work)
        configs = [json.loads(p.read_text()) for p in paths]
        os.chdir(work)
        if not args.trace:
            return run_passes(workloads, configs, args.seconds), None
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            return run_passes(workloads, configs, args.seconds, tracer), tracer
        finally:
            tracer.uninstall()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def layer_values(args, facts, passes, tracer):
    """Per-layer metrics, the median over passes; writes the spans out."""
    import tracing

    per_pass = [tracing.layer_metrics(p["spans"]) for p in passes]
    # counts are whole numbers that repeat exactly from pass to pass
    counts = [k for k, v in per_pass[0].items() if isinstance(v, int)]
    repeat = {k: len({m[k] for m in per_pass}) == 1 for k in counts}
    values = {k: (statistics.median_low if k in repeat else statistics.median)(
        m[k] for m in per_pass) for k in per_pass[0]}
    values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "facts": facts,
        "missing_targets": tracer.missing,
        "counts_repeat": repeat,
        "passes": [{
            "summary": tracing.summarize(p["spans"]),
            "spans": [[s.name, s.start, s.end, s.parent, s.scope, s.counts]
                      for s in p["spans"]],
        } for p in passes],
    }, sort_keys=True) + "\n")
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    if not all(repeat.values()):
        print("counts differ between passes: "
              + ", ".join(k for k, same in repeat.items() if not same))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fbms" / "__init__.py").is_file():
        print(f"fbms sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fbms

    if Path(fbms.__file__).resolve().parent != SRC / "fbms":
        print(f"imported fbms from {fbms.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    contract = load_contract()[args.trace]
    facts = machine_facts(args.seed)
    print("facts " + json.dumps(facts, sort_keys=True))

    if args.trace:
        child, child_bundles = untraced_child(args)
    else:
        setup_s, setup_samples = measure_setup_s()

    passes, tracer = execute(args, workloads)
    walls = [p["wall_s"] for p in passes]
    run_s = statistics.median(walls)
    if args.trace:
        ref = {n: {"bundle_sha256": h} for n, h in child_bundles.items()}
        attempted, failed, problems = tally(passes, reference=ref)
        attempted += child["attempted"]
        failed += child["failed"]
        values = layer_values(args, facts, passes, tracer)
        values["trace.overhead_frac"] = run_s / child["metrics"]["run_s"]["value"] - 1.0
    else:
        attempted, failed, problems = tally(passes)
        values = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup_s samples {setup_samples}")
        first = {n: s["bundle_sha256"] for n, s in passes[0]["scenarios"].items()}
        print('{"bundles": ' + json.dumps(first, sort_keys=True) + "}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} passes, wall s {[round(w, 3) for w in walls]}")
    hi = high_percentile(walls)
    print("run_s p%d %.4f s" % hi if hi else
          f"run_s: no percentile above the median has 10 samples beyond it (n={len(walls)})")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    for msg in problems[:20]:
        print(f"  problem: {msg}")
    missing = set(contract) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    metrics = {}
    for name, unit in contract.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
