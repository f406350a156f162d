"""Outside-in tracing of the fbms layers, installed from the benchmark.

`install` replaces the public functions of every fbms module, and a few named
methods and private helpers, with wrappers that record a span per call: name,
start, end, parent span and the id of the scenario it ran under. The wrapper
goes into every fbms module namespace that binds the function, because
`from .mesh import total_area` copies the binding. Spans stay in memory;
`uninstall` puts every original back.

Layer metrics are derived from the spans afterwards. A span's self time is
its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MODULES = (
    "fbms.mesh", "fbms.constraints", "fbms.variation", "fbms.stability",
    "fbms.monotonicity", "fbms.fermi", "fbms.blowup", "fbms.obj_io",
    "fbms.scenarios", "fbms.cli",
)


def _points(args, result):
    """Rows of the point array passed to a method (args[0] is self)."""
    shape = getattr(args[1], "shape", ())
    return {"points": int(shape[0]) if len(shape) == 2 else 1}


# Targets that are not public module functions, or that need a count taken
# at the boundary: (span name, module, attribute path, counter). The counter
# maps (args, result) to a dict of counts stored on the span.
EXTRA_TARGETS = (
    ("variation.max_aspect_ratio", "fbms.variation", "_max_aspect_ratio", None),
    ("mesh.boundary_edges", "fbms.mesh", "TriangleMesh.boundary_edges", None),
    ("constraints.project", "fbms.constraints", "LevelSetConstraint.project", _points),
    ("constraints.project", "fbms.constraints", "Plane.project", _points),
    ("constraints.project", "fbms.constraints", "Sphere.project", _points),
    ("fermi.to_fermi", "fbms.fermi", "FermiChart.to_fermi", _points),
    ("clip.mass", "fbms._kernels", "mass_in_ball_tris",
     lambda a, r: {"faces": len(a[0]), "crossing": int(r[1])}),
    ("clip.deficit", "fbms._kernels", "deficit_sum_tris",
     lambda a, r: {"faces": len(a[0])}),
)

COUNTERS = {
    "variation.solve_minimal": lambda a, r: {"iterations": int(r.iterations)},
    "stability.is_stable": lambda a, r: {"n": int(a[0].n_vertices)},
}

# Calls fbms.scenarios makes for each pipeline stage, by the names it binds.
STAGES = {
    "solve": ("solve_minimal",),
    "verify": ("verify_minimal",),
    "stability": ("is_stable",),
    "monotonicity": ("density_profile", "check_monotonicity"),
    "fermi": ("build_chart", "graph_extract", "neumann_residual"),
    "doubling": ("reflect_double", "mean_curvature_vector"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    scope: str  # id shared by the spans of one scenario run
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; not thread safe (the benchmark has one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scope = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name, scope=None):
        saved = self.scope
        if scope is not None:
            self.scope = scope
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.scope = saved

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.scope))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx].end = time.perf_counter()

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                try:
                    self.spans[idx].counts = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the call's signature changed; the count reads zero
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, name, owner, attr, counter, modules):
        """Wraps owner.attr and every module binding of the same object."""
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, counter)
        self._patch(owner, attr, wrapper)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        """Wraps every target; targets that do not exist (the program may
        have moved them) are listed in `missing` and read as zero."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {}
        for name in MODULES + ("fbms._kernels",):
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                self.missing.append(name)
        for name, module, path, counter in EXTRA_TARGETS:
            owner = modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module}.{path}")
                continue
            self._wrap_everywhere(name, owner, attr, counter, modules.values())
        for mod in list(modules.values()):
            if mod.__name__ not in MODULES:
                continue
            short = mod.__name__.split(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__
                        or vars(mod)[attr] is not value):  # already wrapped
                    continue
                name = f"{short}.{attr}"
                self._wrap_everywhere(name, mod, attr, COUNTERS.get(name),
                                      modules.values())
        scenarios = modules.get("fbms.scenarios")
        for stage, attrs in STAGES.items():
            for attr in attrs:
                if scenarios is not None and attr in vars(scenarios):
                    self._patch(scenarios, attr, self.wrap(
                        f"stage.{stage}", vars(scenarios)[attr]))
                else:
                    self.missing.append(f"fbms.scenarios.{attr}")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- span arithmetic ---------------------------------------------------------------


def self_times(spans, child_filter=None):
    """Per span: duration minus the durations of its children. Spans nest
    strictly (one thread, one stack), so children are disjoint and inside
    their parent. `child_filter(span)` limits which children count."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0 and (child_filter is None or child_filter(s)):
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans):
    """Per span name: calls, inclusive seconds (a span nested in one of the
    same name is not counted twice), self seconds, and summed counts."""
    own = self_times(spans)
    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["self_s"] += own[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            row["total_s"] += s.end - s.start
        for key, value in s.counts.items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return table


def layer_metrics(spans) -> dict:
    """The benchmark's per-layer metrics for the spans of one pass."""
    table = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}

    def row(name):
        return table.get(name, empty)

    iterations = row("variation.solve_minimal")["counts"].get("iterations", 0)
    trials = row("variation.max_aspect_ratio")["calls"]
    mass = row("clip.mass")
    faces = mass["counts"].get("faces", 0)
    m = {
        "variation.solve_s": row("variation.solve_minimal")["total_s"],
        "variation.solve_self_s": row("variation.solve_minimal")["self_s"],
        "variation.solve_iterations": iterations,
        "variation.trial_meshes": trials,
        "variation.line_search_accept_ratio": iterations / trials if trials else 0.0,
        "variation.max_aspect_ratio_s": row("variation.max_aspect_ratio")["total_s"],
        "variation.verify_s": row("variation.verify_minimal")["total_s"],
        "constraints.project_calls": row("constraints.project")["calls"],
        "constraints.project_points": row("constraints.project")["counts"].get("points", 0),
        "constraints.project_s": row("constraints.project")["total_s"],
        "stability.assemble_s": row("stability.assemble_stability_form")["total_s"],
        "stability.eigensolve_s": row("stability.lowest_eigenpair")["total_s"],
        "stability.n": row("stability.is_stable")["counts"].get("n", 0),
        "clip.mass_calls": mass["calls"],
        "clip.mass_s": mass["total_s"],
        "clip.deficit_calls": row("clip.deficit")["calls"],
        "clip.deficit_s": row("clip.deficit")["total_s"],
        "clip.faces": faces,
        "clip.crossing_frac": mass["counts"].get("crossing", 0) / faces if faces else 0.0,
        "monotonicity.profile_s": row("monotonicity.density_profile")["total_s"],
        "fermi.to_fermi_calls": row("fermi.to_fermi")["calls"],
        "fermi.to_fermi_points": row("fermi.to_fermi")["counts"].get("points", 0),
        "fermi.to_fermi_s": row("fermi.to_fermi")["total_s"],
        "fermi.graph_extract_s": row("fermi.graph_extract")["total_s"],
        "blowup.reflect_double_s": row("blowup.reflect_double")["total_s"],
        "cli.bundle_s": row("cli.emit_report_bundle")["total_s"],
        "obj_io.write_obj_s": row("obj_io.write_obj")["total_s"],
    }
    for fn in ("area_gradient", "free_boundary_residual"):
        m[f"variation.{fn}_calls"] = row(f"variation.{fn}")["calls"]
        m[f"variation.{fn}_s"] = row(f"variation.{fn}")["total_s"]
    for fn in ("total_area", "boundary_edges"):
        m[f"mesh.{fn}_calls"] = row(f"mesh.{fn}")["calls"]
    for fn in ("total_area", "area_gradient_raw", "boundary_edges",
               "boundary_conormal", "second_fundamental_norm",
               "cotangent_laplacian"):
        m[f"mesh.{fn}_s"] = row(f"mesh.{fn}")["total_s"]
    for stage in STAGES:
        m[f"stage.{stage}_s"] = row(f"stage.{stage}")["total_s"]
    # run_scenario time outside its stage calls: config validation, geometry
    # build, report writing and hashing
    runs = [i for i, s in enumerate(spans) if s.name == "scenarios.run_scenario"]
    io = self_times(spans, child_filter=lambda s: s.name.startswith("stage."))
    m["scenarios.io_s"] = sum((io[i] for i in runs), 0.0)
    return m
