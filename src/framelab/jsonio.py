"""JSON codecs for frames, Gram points, partitions, paths, and complexes.

Real scalars are emitted as plain numbers, complex scalars as [re, im]
pairs; matrices are row-major lists of rows.  Python's float repr gives
shortest round-trip decimals, so exact-representable data round-trips
bit-identically.

numpy and the frame, Gram, partition and path types load inside the codecs
that use them, so the complex codec, `frame_rows_to_dict`, `read_json` and
`write_json` run without numpy.  The annotations name those types but,
postponed, are never evaluated.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter


def _matrix_out(M, field):
    """Nested lists of floats; complex entries become [re, im] pairs."""
    import numpy as np

    if field == "C":
        a = np.ascontiguousarray(M, dtype=np.complex128)
        return a.view(np.float64).reshape(*a.shape, 2).tolist()
    return np.real(M).astype(np.float64).tolist()


def _grid(rows, depth: int):
    """(leaves, shape) of ``depth`` levels of nested lists, each level of one
    length, or None when rows is not such a grid or is empty."""
    flat, shape = [rows], ()
    for _ in range(depth):
        widths = set(map(len, flat)) if set(map(type, flat)) == {list} else ()
        if len(widths) != 1:
            return None
        shape += (widths.pop(),)
        flat = list(itertools.chain.from_iterable(flat))
    return flat, shape


def _matrix_in(rows, field):
    """The matrix in row lists of JSON numbers ([re, im] pairs of them for
    field "C").  A leaf that is not a JSON number raises ValueError; input
    that is not a grid of lists goes to numpy and the callers' shape checks
    as it is."""
    import numpy as np

    grid = _grid(rows, 3 if field == "C" else 2)
    kinds = set(map(type, grid[0])) if grid else {list}
    if list in kinds:  # not a grid, or one level too deep
        a = np.array(rows, dtype=np.float64)
    else:
        leaves, shape = grid
        if not kinds <= {int, float}:
            for x in leaves:  # raises at the first leaf that is no JSON number
                _number(x, "matrix entry")
        a = np.array(leaves, dtype=np.float64).reshape(shape)
    if field == "C":
        if a.ndim != 3 or a.shape[2] != 2:
            raise ValueError("complex entries must be [re, im] pairs")
        return a.view(np.complex128)[..., 0]
    return a


def _decoder(fn):
    """Make a document of the wrong shape (not an object, a key missing, a
    value of the wrong type or out of range) raise ValueError, the error
    callers handle."""
    @functools.wraps(fn)
    def decode(d):
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        try:
            return fn(d)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed JSON document ({type(exc).__name__}: {exc})") from None
    return decode


def _number(value, what: str, integer: bool = False):
    """value if it is a JSON number (a JSON integer when ``integer``); a
    bool, a string, or a float where an integer is due raises ValueError."""
    if type(value) is not int and (integer or type(value) is not float):
        kind = "integer" if integer else "number"
        raise ValueError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


def _integer(d: dict, key: str) -> int:
    return _number(d[key], repr(key), integer=True)


def frame_to_dict(F: Frame) -> dict:
    return frame_rows_to_dict(F.field, F.n, F.k, _matrix_out(F.entries, F.field))


def frame_rows_to_dict(field: str, n: int, k: int, rows: list) -> dict:
    """The frame document of an n-by-k synthesis matrix given as row lists
    of JSON numbers ([re, im] pairs of them for field "C")."""
    return {"field": field, "n": n, "k": k, "entries": rows}


@_decoder
def frame_from_dict(d: dict) -> Frame:
    from .frames import Frame

    F = Frame(d["field"], _matrix_in(d["entries"], d["field"]))
    if (F.n, F.k) != (_integer(d, "n"), _integer(d, "k")):
        raise ValueError("frame entries do not match the declared n, k")
    return F


def gram_to_dict(R: GramPoint) -> dict:
    return gram_stack_to_dicts(R.field, R.n, R.entries[None])[0]


def gram_stack_to_dicts(field: str, n: int, stack) -> list:
    """The Gram documents of a stack (m, k, k) of one field's rank-n Gram matrices."""
    return [{"field": field, "k": stack.shape[-1], "n": n, "entries": rows}
            for rows in _matrix_out(stack, field)]


@_decoder
def gram_from_dict(d: dict) -> GramPoint:
    from .grassmann import GramPoint

    R = GramPoint(d["field"], _integer(d, "n"), _matrix_in(d["entries"], d["field"]))
    if R.k != _integer(d, "k"):
        raise ValueError("gram entries do not match the declared k")
    return R


def loop_to_dict(points) -> dict:
    return {"points": [gram_to_dict(p) for p in points]}


@_decoder
def loop_from_dict(d: dict):
    return [gram_from_dict(p) for p in d["points"]]


def partition_to_dict(p: Partition) -> dict:
    return {"k": p.k, "blocks": [list(b) for b in p.blocks]}


@_decoder
def partition_from_dict(d: dict) -> Partition:
    from .stratification import Partition

    return Partition(_integer(d, "k"), tuple(
        tuple(_number(i, "'blocks' entry", integer=True) for i in b) for b in d["blocks"]))


def path_to_dict(p: FramePath) -> dict:
    z = _matrix_out(p.points, "C")
    return {"kind": p.kind, "k": p.k, "max_step": p.max_step,
            "samples": [{"t": t, "z": row} for t, row in zip(p.ts.tolist(), z)]}


@_decoder
def path_from_dict(d: dict) -> FramePath:
    from .planar import FramePath

    samples = d["samples"]
    p = FramePath(d["kind"], [_number(s["t"], "'t'") for s in samples],
                  _matrix_in([s["z"] for s in samples], "C"),
                  _number(d["max_step"], "'max_step'"))
    if p.k != _integer(d, "k"):
        raise ValueError("path samples do not match the declared k")
    return p


def complex_to_dict(C: Complex2) -> dict:
    return {
        "vertices": sorted(C.vertices),
        "edges": [{"id": e, "ends": list(C.edges[e])} for e in sorted(C.edges)],
        "faces": [{"id": f, "walk": [{"edge": e, "dir": d} for e, d in C.faces[f]]}
                  for f in sorted(C.faces)],
    }


def _distinct(kept, listed: list, what: str):
    """kept, the set or dict of the keys listed; a key listed twice raises ValueError."""
    if len(kept) != len(listed):
        raise ValueError(f"{what} {Counter(listed).most_common(1)[0][0]!r} is listed twice")
    return kept


@_decoder
def complex_from_dict(d: dict) -> Complex2:
    """The complex of a document.  Vertices that are not a list, a vertex
    label, edge id or face id listed twice, or edge ends that are not a list
    of two labels raise ValueError."""
    from .cellcomplex import Complex2

    if type(d["vertices"]) is not list:
        raise ValueError(f"vertices must be a list of labels, got {d['vertices']!r}")
    vertices = _distinct(set(d["vertices"]), d["vertices"], "vertex label")
    edges = {}
    for e in d["edges"]:
        ends = e["ends"]
        if type(ends) is not list or len(ends) != 2:
            raise ValueError(f"edge {e['id']!r} needs a list of two ends, got {ends!r}")
        edges[e["id"]] = tuple(ends)
    # a dir that is an int passes without a call; any other is refused by _integer
    faces = {f["id"]: tuple((s["edge"], s["dir"] if type(s["dir"]) is int else _integer(s, "dir"))
                            for s in f["walk"])
             for f in d["faces"]}
    _distinct(edges, [e["id"] for e in d["edges"]], "edge id")
    _distinct(faces, [f["id"] for f in d["faces"]], "face id")
    return Complex2(vertices, edges, faces)


def read_json(path: str) -> dict:
    """Load a JSON document from a file path or from stdin when path is '-'.

    A document nested deeper than the decoder's recursion allows is refused
    with a ValueError, as malformed input."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON document nested too deeply") from None


def write_json(doc) -> None:
    """One line of compact JSON to stdout, by json.dumps's C encoder."""
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
