"""Command line front end: scenario runner, catalog listing, report bundles.

Outputs are deterministic: report JSON is written with sorted keys, bundles
are tar archives with zeroed timestamps and fixed member order, and timing
data stays outside the bundle.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import tarfile
from pathlib import Path

from .scenarios import (
    ScenarioError,
    _run,
    _stages_run,
    builtin_scenarios,
    manifest_outputs,
    validate_config,
)

def _load_config(ref: str) -> dict:
    catalog = builtin_scenarios()
    if ref in catalog:
        return catalog[ref]
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(f"no builtin scenario or config file named {ref!r}")
    return json.loads(path.read_text())


def cmd_list(_args) -> int:
    catalog = builtin_scenarios()
    width = max(len(name) for name in catalog)
    for name, cfg in catalog.items():
        mesh = cfg["initial_mesh"]
        if "builtin" in mesh:
            src = mesh["builtin"]
            params = ",".join(f"{k}={v}" for k, v in mesh.get("params", {}).items())
            desc = f"{src}({params})"
        else:
            desc = "polyline (k=1 oracle)"
        extra = cfg.get("description", "")
        line = f"{name:<{width}}  {desc}  stages: {'+'.join(_stages_run(cfg))}"
        if extra:
            line += f"  ({extra})"
        if "expect" in cfg:
            line += f"  expect: {json.dumps(cfg['expect'], sort_keys=True)}"
        print(line)
    return 0


def cmd_run(args) -> int:
    out_root = Path(args.out)
    try:
        runs = [validate_config(_load_config(ref)) for ref in args.scenario]
        names = [config["name"] for config, _ in runs]
        if repeated := sorted({name for name in names if names.count(name) > 1}):
            raise ScenarioError(f"two configs share a name, so a run directory: {repeated}")
        for run_dir in (out_root / name for name in names):
            # the nearest of run_dir and its ancestors that exists must be a directory
            found = next(p for p in (run_dir, *run_dir.parents) if p.exists() or p.is_symlink())
            if not found.is_dir():
                raise ScenarioError(f"--out: {found} exists and is not a directory")
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or invalid
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    manifests = [_run(c, geometry, out_root / c["name"]) for c, geometry in runs]

    # the exit code says whether every outcome is the declared one
    ok = True
    for man in manifests:
        problems = man.mismatches()
        status = "FAIL" if problems else "pass" if man.all_passed() else "as expected"
        print(f"{man.scenario}: {status} "
              f"(stages: {', '.join(f'{k}={v}' for k, v in sorted(man.stage_pass.items()))})")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
    return 0 if ok else 1


def emit_report_bundle(manifest_path) -> Path:
    """Packs the manifest and all stage outputs into a deterministic tar."""
    manifest_path = Path(manifest_path)
    outputs = manifest_outputs(manifest_path)
    out_dir = manifest_path.parent
    members = ["manifest.json"] + sorted(outputs)
    missing = [m for m in members if not (out_dir / m).exists()]
    if missing:
        raise FileNotFoundError(
            f"stage output missing from {out_dir}: {', '.join(missing)}"
        )
    target = out_dir / "bundle.tar"
    with tarfile.open(target, "w", format=tarfile.USTAR_FORMAT) as tar:
        for name in members:
            data = (out_dir / name).read_bytes()
            info = tarfile.TarInfo(name=name)  # mtime 0, uid/gid 0, no owner names, mode 0644
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return target


def cmd_bundle(args) -> int:
    try:
        path = emit_report_bundle(args.manifest)
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or not a manifest
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    print(path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbms",
        description="free boundary minimal surface laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios (builtin name or config path)")
    p_run.add_argument("scenario", nargs="+")
    p_run.add_argument("--out", default="fbms-out")
    p_run.set_defaults(func=cmd_run)

    p_list = sub.add_parser("list", help="list builtin scenarios")
    p_list.set_defaults(func=cmd_list)

    p_bundle = sub.add_parser("bundle", help="bundle a run's reports")
    p_bundle.add_argument("manifest")
    p_bundle.set_defaults(func=cmd_bundle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
