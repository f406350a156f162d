"""Wavefront OBJ subset I/O (v/f records, 1-based indices).

Only `v` and `f` records are read; every other line (comments, vn, vt, o, g,
blank) is skipped. Extra vertex coordinates are ignored, a face token a/b/c
keeps its vertex index a, and a face with other than three vertices is
rejected. Each record type is parsed by one np.loadtxt call, and a malformed
record raises ValueError as `file:line: reason`.

Constrained boundary flags travel in a JSON sidecar of the form
{"constrained": [vertex indices]}; anything else, an index out of range or
not an integer included, raises ValueError as `sidecar: reason`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .mesh import TriangleMesh

_AFTER_SLASH = re.compile(r"/\S*")


def write_obj(mesh: TriangleMesh, path):
    path = Path(path)
    text = ("v %.17g %.17g %.17g\n" * mesh.n_vertices % tuple(mesh.vertices.ravel().tolist())
            + "f %d %d %d\n" * mesh.n_faces % tuple((mesh.faces + 1).ravel().tolist()))
    path.write_text(text or "\n")
    idx = np.nonzero(mesh.constrained)[0].tolist()
    path.with_suffix(".constrained.json").write_text(
        json.dumps({"constrained": idx}, separators=(",", ":")) + "\n"
    )


def _reads(token, dtype):
    try:
        np.loadtxt([token], dtype=dtype, comments=None)
    except ValueError:
        return False
    return True


def _parse(path, rows, numbers, faces):
    """(len(rows), 3) array of the v record bodies `rows`, or of the f record
    bodies when `faces`, from one np.loadtxt call; `numbers` are their lines
    in the file, named by the ValueError a malformed body raises."""
    dtype = np.int64 if faces else float
    if not rows:  # np.loadtxt warns on empty input
        return np.empty((0, 3), dtype=dtype)
    if faces:
        rows = _AFTER_SLASH.sub("", "\n".join(rows)).split("\n")
    # np.loadtxt skips blank rows, and warns when nothing else is left:
    # a blank body goes straight to the row-by-row reasons below
    if all(row.strip() for row in rows):
        try:
            out = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2,
                             usecols=None if faces else (0, 1, 2))
            if out.shape == (len(rows), 3):
                return out
        except ValueError:
            pass
    for row, number in zip(rows, numbers):
        tokens = row.split()
        if faces and len(tokens) != 3:
            reason = "only triangle faces are supported"
        elif len(tokens) < 3:
            reason = "a vertex needs 3 coordinates"
        else:
            bad = [t for t in tokens[:3] if not _reads(t, dtype)]
            if not bad:
                continue
            reason = f"could not convert {bad[0]!r}"
        raise ValueError(f"{path.name}:{number}: {reason}")
    raise ValueError(f"{path.name}: unreadable {'f' if faces else 'v'} records")


def read_obj(path) -> TriangleMesh:
    path = Path(path)
    records = {"v": ([], []), "f": ([], [])}  # record bodies, their lines
    for number, line in enumerate(path.read_text().splitlines(), 1):
        parts = line.split(None, 1)
        if parts and parts[0] in records:
            rows, numbers = records[parts[0]]
            rows.append(parts[1] if len(parts) == 2 else "")
            numbers.append(number)
    verts = _parse(path, *records["v"], faces=False)
    faces = _parse(path, *records["f"], faces=True) - 1
    sidecar = path.with_suffix(".constrained.json")
    constrained = _read_flags(sidecar, len(verts)) if sidecar.exists() else None
    return TriangleMesh(verts, faces, constrained)


def _read_flags(sidecar, n):
    """The (n,) constrained flags a sidecar lists by vertex index."""
    try:
        idx = json.loads(sidecar.read_text())["constrained"]
    except (ValueError, KeyError, TypeError):  # not JSON, or no such key
        idx = None
    if not isinstance(idx, list):
        raise ValueError(f'{sidecar.name}: expected {{"constrained": [vertex indices]}}')
    # a bool is an int to Python, but no vertex index
    bad = [i for i in idx if type(i) is not int or not 0 <= i < n]
    if bad:
        raise ValueError(f"{sidecar.name}: {json.dumps(bad[0])} is not a vertex index "
                         f"in [0, {n})")
    flags = np.zeros(n, dtype=bool)
    flags[idx] = True
    return flags
