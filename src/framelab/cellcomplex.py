"""A small labeled 2-complex engine, plus two built-in complexes.

``build_g42`` assembles the graph formed by six labeled circles whose
marked points are merged in pairs; ``build_g52`` glues sixteen labeled
20-gons along the edge and vertex identification lists for the moduli
surface of five planar unit vectors.  ``surface_report`` answers the
closed/orientable/connected/genus questions for any complex.

Every graph question here goes through one routine, ``_masks``, a
frontier search over Python-int bitmasks with one mask per component, and
is read off those masks: vertex links on the corner graph of the edge ends,
orientability on the orientation double cover of the faces, and
connectivity on that cover for a closed surface, else on the 1-skeleton.

``Complex2`` and ``SurfaceReport`` derive from ``defaults._Record``, the
one base of every framelab value type, which loads no numpy.  A
``Complex2``'s containers are read-only too: its constructor checks its own
frozen copies of the caller's set and dicts, so a complex is checked once
and can be shared.  ``build_g42`` and ``build_g52`` return one cached complex
each, and ``connected_components`` returns a connected complex itself.

The two built-in data sets are transcriptions: each gluing direction is
forced by the vertex classes of the identified edge pair, and an endpoint
class mismatch aborts construction (a transcription error, not a runtime
condition).  ``build_g52`` glues once per transcription, encoding each sign
vector in {+-1}^4 as a 4-bit mask, so a sign twist (an entrywise product)
is an XOR of masks and the ``|+-+-`` suffix of a label is one entry of a
16-string table; each face's twenty vertex labels are formed once.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, defaultdict
from types import MappingProxyType

from .defaults import _Record


class Complex2(_Record):
    """A labeled 2-complex, read-only down to its containers.

    vertices: frozenset of labels.
    edges: read-only mapping {label: (tail, head)} giving each edge a
    reference direction.
    faces: read-only mapping {label: ((edge, +1|-1), ...)} of closed
    boundary walks; dir +1 traverses the edge tail -> head.

    The constructor takes any iterable of labels and any two mappings, and
    checks and keeps its own frozen copies of them (the ends and walks are
    kept as given: tuples from every framelab producer).  Pickle and copy
    go through the constructor, so a tampered pickle is refused.
    """

    def __init__(self, vertices, edges, faces):
        vertices, edges, faces = frozenset(vertices), dict(edges), dict(faces)
        for e, (a, b) in edges.items():
            if a not in vertices or b not in vertices:
                raise ValueError(f"edge {e!r} has undeclared endpoint")
        for f, walk in faces.items():
            ends = []  # the tail and head of each step, as walked
            for e, d in walk:
                if e not in edges:
                    raise ValueError(f"face {f!r} uses undeclared edge {e!r}")
                if type(d) is not int or d not in (1, -1):  # the codec's rule: not True, not 1.0
                    raise ValueError(f"face {f!r} has direction {d!r}")
                ends += edges[e] if d == 1 else edges[e][::-1]
            if not ends:
                raise ValueError(f"face {f!r} has an empty boundary")
            if ends[1::2] != ends[2::2] + ends[:1]:  # each head is the next step's tail
                raise ValueError(f"face {f!r} boundary is not a closed walk")
        if any(c > 2 for c in Counter(e for walk in faces.values() for e, _ in walk).values()):
            raise ValueError("an edge appears more than twice in face boundaries")
        vars(self).update(vertices=vertices, edges=MappingProxyType(edges),
                          faces=MappingProxyType(faces))

    def __reduce__(self):
        return type(self), (self.vertices, dict(self.edges), dict(self.faces))


class SurfaceReport(_Record):
    """Cell counts and the surface classification answers (read-only)."""

    def __init__(self, v: int, e: int, f: int, euler: int, closed_surface: bool,
                 orientable: bool, connected: bool, genus):
        # genus: int when closed, orientable and connected, else None
        vars(self).update(v=v, e=e, f=f, euler=euler, closed_surface=closed_surface,
                          orientable=orientable, connected=connected, genus=genus)


def _edge_traversals(C: Complex2):
    tr = defaultdict(list)
    for f, walk in C.faces.items():
        for e, d in walk:
            tr[e].append((f, d))
    return tr


def _bits(x: int) -> list:
    """Indices of the set bits of x, ascending, in time linear in their count."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _masks(k: int, neighbours) -> list:
    """Connected components of the graph on 0..k-1 in which neighbours(i) is
    the bitmask of i's neighbours (bit j set iff i ~ j; symmetric), as one
    bitmask each, ordered by their smallest index.  neighbours is called at
    most once per index, so it can build the masks on demand."""
    unseen = (1 << k) - 1
    comps = []
    while unseen:
        member = frontier = unseen & -unseen  # the smallest unseen index
        # once member holds every unplaced index there is nothing left to reach
        while frontier and member != unseen:
            reach = 0
            while frontier:  # the neighbours of each frontier index, lowest first
                low = frontier & -frontier
                reach |= neighbours(low.bit_length() - 1)
                frontier ^= low
            frontier = reach & ~member
            member |= frontier
        unseen ^= member
        comps.append(member)
    return comps


def _components(k: int, neighbours) -> list:
    """_masks as lists of indices."""
    return [_bits(m) for m in _masks(k, neighbours)]


def _linked(k: int, pairs) -> list:
    """_masks of the graph on 0..k-1 with an edge i ~ j per pair (i, j)."""
    rows = [0] * k
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _masks(k, rows.__getitem__)


def _vertex_components(C: Complex2):
    """Vertex sets of the connected components of C's 1-skeleton, ordered
    by their smallest label (labels compared as strings)."""
    labels = sorted(C.vertices, key=str)
    index = {v: i for i, v in enumerate(labels)}
    comps = _linked(len(labels), ((index[a], index[b]) for a, b in C.edges.values()))
    return [{labels[i] for i in _bits(m)} for m in comps]


def _links_are_circles(C: Complex2) -> bool:
    """Whether every vertex link is one circle, given that every edge has two
    traversals.  Node 2i + s is end s (0 tail, 1 head) of the i-th edge; a
    corner joins the end a face enters a vertex by to the one it leaves by,
    so the corners at v form cycles, one per component, and the link at v
    is a circle iff one component's lowest end, and only one, lies at v."""
    index = {eid: 2 * i for i, eid in enumerate(C.edges)}
    at = list(itertools.chain.from_iterable(C.edges.values()))  # the vertex of each end
    corners = ((index[e1] + (d1 > 0), index[e2] + (d2 < 0))
               for walk in C.faces.values()
               for (e1, d1), (e2, d2) in zip(walk, walk[1:] + walk[:1]))
    hubs = [at[(m & -m).bit_length() - 1] for m in _linked(len(at), corners)]
    return len(hubs) == len(set(hubs)) == len(C.vertices)


def _double_cover(C: Complex2, tr) -> list:
    """_masks of the orientation double cover: node 2i + s is the i-th face kept (s = 0) or
    reversed (s = 1), and traversals (f1, d1), (f2, d2) join (f1, s) to (f2, s ^ (d1 == d2))."""
    index = {f: 2 * i for i, f in enumerate(C.faces)}
    glue = {(index[f1], index[f2] + (d1 == d2)) for (f1, d1), (f2, d2) in tr.values()}
    return _linked(len(index) * 2, glue | {(a ^ 1, b ^ 1) for a, b in glue})


def surface_report(C: Complex2) -> SurfaceReport:
    """Counts, Euler characteristic, and the surface questions.

    closed means every edge lies in exactly two face-boundary traversals
    and every vertex link is a single cycle; orientable means the faces
    can be oriented so that the two traversals of every edge disagree;
    genus = (2 - euler)/2 when closed, orientable and connected.  Links are
    read off the ``_masks`` of the corner graph on the edge ends.  A closed
    surface's faces reach every cell and meet at each vertex through its
    link, so the double cover decides orientable and connected there.
    """
    v, e, f = len(C.vertices), len(C.edges), len(C.faces)
    euler = v - e + f
    tr = _edge_traversals(C)
    closed = (f > 0 and all(len(tr[eid]) == 2 for eid in C.edges)
              and _links_are_circles(C))
    if closed:
        cover, kept = _double_cover(C, tr), (4 ** f - 1) // 3  # kept: bits 0, 2, 4, ...
        orientable = not any(m & (m >> 1) & kept for m in cover)  # no face in both copies
        connected = (cover[0] | cover[0] >> 1) & kept == kept  # face 0's copies reach every face
    else:
        orientable, connected = False, len(_vertex_components(C)) <= 1
    genus = (2 - euler) // 2 if closed and orientable and connected else None
    return SurfaceReport(v, e, f, euler, closed, orientable, connected, genus)


def connected_components(C: Complex2):
    """Split a complex into its connected sub-complexes, ordered by their
    smallest vertex label (labels compared as strings).  A connected
    complex is its own one component."""
    comps = _vertex_components(C)
    if len(comps) == 1:
        return [C]
    where = {v: i for i, verts in enumerate(comps) for v in verts}
    edges, faces = [{} for _ in comps], [{} for _ in comps]
    for e, ab in C.edges.items():  # an edge goes with its tail
        edges[where[ab[0]]][e] = ab
    for f, walk in C.faces.items():  # a face with the tail of its first edge
        faces[where[C.edges[walk[0][0]][0]]][f] = walk
    return [Complex2(*part) for part in zip(comps, edges, faces)]


# ---------------------------------------------------------------------------
# built-in complex: the graph of four-vector planar frame classes


@functools.cache
def build_g42() -> Complex2:
    """The graph glued from six marked circles: twelve vertices of degree
    four joined by twenty-four arcs (no 2-cells).  Built and checked once;
    every call returns that complex."""
    marks = ("1", "i", "-1", "-i")
    # each merged vertex class lists its two (circle index p, sign, mark)
    classes = {
        "v1": (("2", "+", "1"), ("4", "-", "i")),
        "v2": (("2", "-", "1"), ("4", "+", "-i")),
        "v3": (("2", "+", "i"), ("3", "+", "i")),
        "v4": (("2", "-", "i"), ("3", "-", "i")),
        "v5": (("2", "+", "-1"), ("4", "-", "-i")),
        "v6": (("2", "-", "-1"), ("4", "+", "i")),
        "v7": (("2", "+", "-i"), ("3", "+", "-i")),
        "v8": (("2", "-", "-i"), ("3", "-", "-i")),
        "v9": (("3", "+", "1"), ("4", "+", "1")),
        "v10": (("3", "-", "1"), ("4", "-", "1")),
        "v11": (("3", "+", "-1"), ("4", "+", "-1")),
        "v12": (("3", "-", "-1"), ("4", "-", "-1")),
    }
    where = {m: label for label, members in classes.items() for m in members}
    edges = {}
    for p in ("2", "3", "4"):
        for sign in ("+", "-"):
            for j in range(4):
                a = where[(p, sign, marks[j])]
                b = where[(p, sign, marks[(j + 1) % 4])]
                edges[f"tau{p}{sign}:arc{j}"] = (a, b)
    return Complex2(classes.keys(), edges, {})


# ---------------------------------------------------------------------------
# built-in complex: sixteen 20-gons glued into a closed surface


_T_A = (-1, -1, 1, 1)
_T_B = (-1, -1, 1, -1)
_T_C = (-1, -1, -1, -1)
_T_D = (-1, 1, -1, -1)
_T_E = (1, 1, -1, -1)
_T_I = (-1, -1, -1, 1)
_T_N = (1, -1, -1, -1)
_ID4 = (1, 1, 1, 1)

# raw vertex (letter on the 20-gon boundary) -> merged class (letter, sign twist)
_VERTEX_CLASS = {
    "a": ("a", _ID4), "b": ("b", _ID4), "c": ("c", _ID4), "d": ("d", _ID4),
    "e": ("e", _ID4), "f": ("f", _ID4),
    "g": ("d", _T_D), "h": ("e", _T_D),
    "i": ("b", (1, 1, -1, 1)), "j": ("c", (1, 1, 1, -1)),
    "k": ("a", _T_A), "l": ("b", _T_A),
    "m": ("c", _T_C), "n": ("d", _T_C),
    "o": ("e", _T_E), "p": ("f", _T_E),
    "q": ("d", (-1, 1, 1, 1)), "r": ("e", (1, -1, 1, 1)),
    "s": ("b", _T_B), "t": ("c", _T_B),
}

# raw edge letter -> merged class (letter, sign twist); ten classes per sign
_EDGE_CLASS = {
    "A": ("A", _ID4), "B": ("B", _ID4), "C": ("C", _ID4), "D": ("D", _ID4),
    "E": ("E", _ID4), "F": ("F", _ID4), "H": ("H", _ID4), "I": ("I", _ID4),
    "J": ("J", _ID4), "N": ("N", _ID4),
    "G": ("D", _T_D), "K": ("A", _T_A), "L": ("I", _T_I), "M": ("C", _T_C),
    "O": ("E", _T_E), "P": ("F", _T_E), "Q": ("N", _T_N), "R": ("H", _T_C),
    "S": ("B", _T_B), "T": ("J", _T_A),
}

_VSEQ = "abcdefghijklmnopqrst"
_ESEQ = "ABCDEFGHIJKLMNOPQRST"


def _sgn(eps) -> str:
    return "".join("+" if s > 0 else "-" for s in eps)


def build_g52() -> Complex2:
    """Sixteen 20-gon faces indexed by sign vectors in {+-1}^4, glued along
    the tabulated edge and vertex identifications.

    Each face's boundary walks its raw vertices a..t in order; raw edges
    A..T pair up into 160 classes under the listed sign twists, and raw
    vertices merge into 96 classes of sizes (2,4,4,4,4,2) per sign vector.
    The gluing direction of every identified edge pair is derived from the
    vertex classes of its endpoints; a mismatch raises ValueError.  Glued
    and checked once per transcription: every call returns the one complex
    cached under the contents of the two class tables, so a changed table
    is glued and checked again.
    """
    return _glue(tuple(_VERTEX_CLASS.items()), tuple(_EDGE_CLASS.items()))


@functools.lru_cache(maxsize=1)
def _glue(vtable: tuple, etable: tuple) -> Complex2:
    """build_g52's complex for the items of the two tables."""
    signs = ["".join(s) for s in itertools.product("+-", repeat=4)]
    mask = {s: m for m, s in enumerate(signs)}  # sign string -> 4-bit mask
    vclass = [(name, mask[_sgn(tw)]) for name, tw in map(dict(vtable).__getitem__, _VSEQ)]
    eclass = [(name, mask[_sgn(tw)]) for name, tw in map(dict(etable).__getitem__, _ESEQ)]
    vertices, edges, faces = set(), {}, {}
    for m, sign in enumerate(signs):
        ring = [f"{name}|{signs[m ^ tw]}" for name, tw in vclass]  # raw vertices a..t
        vertices.update(ring)
        walk = []
        for L, (name, tw), tail, head in zip(_ESEQ, eclass, ring, ring[1:] + ring[:1]):
            ec, step = f"{name}|{signs[m ^ tw]}", (tail, head)
            ends = edges.setdefault(ec, step)
            if ends not in (step, step[::-1]):
                raise ValueError(
                    f"transcription check failed: edge {L}|{sign} has endpoint "
                    f"classes {step} but its partner was recorded with {ends}")
            walk.append((ec, 1 if ends == step else -1))
        faces[f"B|{sign}"] = tuple(walk)
    return Complex2(vertices, edges, faces)
