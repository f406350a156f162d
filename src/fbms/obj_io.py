"""Wavefront OBJ subset I/O (v/f records, 1-based indices).

Only `v` and `f` records are read; every other line (comments, vn, vt, o, g,
blank) is skipped. A record is a line whose first word, as str.split finds
words, is `v` or `f`; its body is the rest of the line after the whitespace
that follows. Records are found by array operations over the file's
characters, not line by line: the line breaks str.splitlines knows become
`\n` first, and each record type's bodies are gathered by one mask. Extra
vertex coordinates are ignored, a face token a/b/c keeps its vertex index a,
and a face with other than three vertices is rejected. Each record type is
parsed by one np.loadtxt call, and a malformed record raises ValueError as
`file:line: reason`.

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


def _parse(path, bodies, numbers, faces):
    """(n, 3) array of the n v record bodies in `bodies`, each ended by
    "\n", or of the f record bodies when `faces`, from one np.loadtxt call;
    `numbers` are their lines in the file, named by the ValueError a
    malformed body raises."""
    dtype = np.int64 if faces else float
    if not bodies:  # np.loadtxt warns on empty input
        return np.empty((0, 3), dtype=dtype)
    if faces and "/" in bodies:
        bodies = _AFTER_SLASH.sub("", bodies)
    rows = bodies.split("\n")[:-1]
    # np.loadtxt skips blank rows, and warns when nothing else is left: then
    # the row-by-row reasons below name the first blank body
    if not bodies.isspace():
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


def _records(text):
    """{"v": (bodies, numbers), "f": ...}: each record type's bodies, each
    ended by "\n", and their 1-based line numbers, in a text whose only line
    break is "\n"."""
    if text.isascii():
        encoding, dtype = "ascii", np.uint8
    else:  # one code point per character
        encoding, dtype = "utf-32-le", np.uint32
    codes = np.frombuffer((text + "\n").encode(encoding), dtype=dtype)
    is_space = np.array([chr(i).isspace() for i in range(codes.max() + 1)])
    ends = np.flatnonzero(codes == ord("\n"))

    def skip_space(q, end):
        """First non-space character at or after each q, or its end if none
        is before. Each round looks at a window twice as wide as the last,
        so a run of n spaces costs O(n) work in O(log n) rounds."""
        q = q.copy()
        moving = np.flatnonzero(is_space[codes[q]] & (q < end))
        width = 1
        while len(moving):
            window = np.minimum(q[moving, None] + np.arange(1, width + 1), end[moving, None])
            blank = is_space[codes[window]] & (window < end[moving, None])
            through = blank.all(axis=1)
            q[moving] += np.where(through, width, blank.argmin(axis=1) + 1)
            moving = moving[through]
            width *= 2
        return q

    # each line's first character past its indentation
    first = skip_space(np.concatenate(([0], ends[:-1] + 1)), ends)
    lead = codes[first]
    records = {}
    for kind in "vf":
        line = np.flatnonzero(lead == ord(kind))
        line = line[is_space[codes[first[line] + 1]]]  # the word is the letter alone
        stop = ends[line] + 1  # a body keeps its "\n"
        body = skip_space(first[line] + 1, stop - 1)
        gaps = body - np.concatenate(([0], stop[:-1]))
        keep = np.repeat(np.tile([False, True], len(line)),
                         np.column_stack([gaps, stop - body]).ravel())
        records[kind] = codes[:len(keep)][keep].tobytes().decode(encoding), line + 1
    return records


def read_obj(path) -> TriangleMesh:
    path = Path(path)
    text = path.read_text()
    # every line break str.splitlines knows becomes "\n"; ASCII text can hold
    # no other break than these
    if not text.isascii() or any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e"):
        text = "\n".join(text.splitlines())
    records = _records(text)
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
