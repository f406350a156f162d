"""Every module of the package and of its tests uses each name it imports,
and importing the package loads no module beyond it, NumPy, SciPy and the
standard-library modules it names."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "fbms").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _dotted(node):
    """'a.b.c' for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source):
    """Names a module imports and never reads, in order of import.

    `import a.b` counts as used only where the expression a.b (or one that
    extends it) appears. `from __future__ import ...` and the names a module
    lists in __all__ are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        name = _dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
        if name:
            parts = name.split(".")
            used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_sees_dotted_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\nimport fbms.mesh\nimport fbms.cli\n"
              "from math import pi, tau\n__all__ = ['tau']\n"
              "os.path.join(fbms.mesh.x, pi)\n")
    assert unused_imports(source) == ["json", "fbms.cli"]


# Public names that only tests call: the references the tests compare the
# library against, and criterion 9's rescaling.
ORACLES = [
    "blowup.rescale",
    "constraints.estimate_kappa",
    "samplers.half_disk",
    "samplers.icosphere",
    "variation.finite_difference_variation",
]


def _names(path, strings):
    """The identifiers a module reads, the last part of each name it imports
    and, where `strings`, each dotted part of its string constants (the
    benchmark's tracer binds targets by strings such as
    "TriangleMesh.boundary_edges")."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def test_every_public_name_is_used_outside_the_tests():
    package = sorted((ROOT / "src" / "fbms").glob("*.py"))
    named = set().union(*(_names(p, False) for p in package),
                        *(_names(p, True) for p in (ROOT / "perfbench").glob("*.py")))
    unused = [f"{path.stem}.{node.name}" for path in package
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in named]
    assert sorted(unused) == ORACLES


# The standard-library modules fbms imports, and those tarfile loads (grp,
# pwd); a module that numpy and scipy.sparse load already may be listed too.
STDLIB = {"argparse", "copy", "csv", "dataclasses", "functools", "grp", "hashlib", "io",
          "json", "numbers", "pathlib", "pwd", "re", "sys", "tarfile", "time", "warnings"}


def _loaded_modules(imports):
    """The modules a fresh interpreter has loaded after `import <imports>`."""
    code = f"import {imports}, json, sys; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return set(json.loads(run.stdout))


def test_package_imports_load_no_other_module():
    # the setup path's import cost: a new module there is a new dependency
    base = _loaded_modules("numpy, scipy.sparse, scipy.sparse.linalg")
    extra = _loaded_modules("fbms, fbms.scenarios, fbms.cli") - base
    assert {m for m in extra if m != "fbms" and not m.startswith("fbms.")} <= STDLIB
    assert "fbms.scenarios" in extra
