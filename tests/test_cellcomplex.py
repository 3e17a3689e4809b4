import copy
import hashlib
import inspect
import itertools
import pickle
import random
import types
from collections import defaultdict, deque

import numpy as np
import pytest

import framelab as fl
from framelab import cellcomplex, cli, defaults, jsonio


def torus() -> fl.Complex2:
    return fl.Complex2(
        {"v"},
        {"A": ("v", "v"), "B": ("v", "v")},
        {"F": (("A", 1), ("B", 1), ("A", -1), ("B", -1))},
    )


def klein_bottle() -> fl.Complex2:
    return fl.Complex2(
        {"v"},
        {"A": ("v", "v"), "B": ("v", "v")},
        {"F": (("A", 1), ("B", 1), ("A", 1), ("B", -1))},
    )


def disjoint_union(C1: fl.Complex2, C2: fl.Complex2) -> fl.Complex2:
    def tag(x, i):
        return f"{i}:{x}"

    vertices = {tag(v, 1) for v in C1.vertices} | {tag(v, 2) for v in C2.vertices}
    edges = {tag(e, 1): (tag(a, 1), tag(b, 1)) for e, (a, b) in C1.edges.items()}
    edges.update({tag(e, 2): (tag(a, 2), tag(b, 2)) for e, (a, b) in C2.edges.items()})
    faces = {tag(f, 1): tuple((tag(e, 1), d) for e, d in w) for f, w in C1.faces.items()}
    faces.update({tag(f, 2): tuple((tag(e, 2), d) for e, d in w)
                  for f, w in C2.faces.items()})
    return fl.Complex2(vertices, edges, faces)


def test_torus_fixture():
    r = fl.surface_report(torus())
    assert (r.v, r.e, r.f, r.euler) == (1, 2, 1, 0)
    assert r.closed_surface and r.orientable and r.connected
    assert r.genus == 1


def test_klein_bottle_detected_nonorientable():
    r = fl.surface_report(klein_bottle())
    assert r.closed_surface and not r.orientable
    assert r.genus is None


def test_single_square_not_closed():
    C = fl.Complex2(
        {"1", "2", "3", "4"},
        {"A": ("1", "2"), "B": ("2", "3"), "C": ("3", "4"), "D": ("4", "1")},
        {"F": (("A", 1), ("B", 1), ("C", 1), ("D", 1))},
    )
    r = fl.surface_report(C)
    assert not r.closed_surface
    assert r.euler == 4 - 4 + 1


def test_two_tori():
    C = disjoint_union(torus(), torus())
    r = fl.surface_report(C)
    assert not r.connected
    comps = fl.connected_components(C)
    assert len(comps) == 2
    for comp in comps:
        rc = fl.surface_report(comp)
        assert rc.closed_surface and rc.orientable and rc.genus == 1


def test_components_partition_the_complex():
    tori = disjoint_union(torus(), torus())
    C = fl.Complex2(tori.vertices | {"x"}, tori.edges, tori.faces)
    comps = fl.connected_components(C)
    assert [sorted(comp.vertices) for comp in comps] == [["1:v"], ["2:v"], ["x"]]
    assert [(len(comp.edges), len(comp.faces)) for comp in comps] == [(2, 1), (2, 1), (0, 0)]
    vertices, edges, faces = set(), {}, {}
    for comp in comps:
        vertices |= comp.vertices
        edges.update(comp.edges)
        faces.update(comp.faces)
    assert (vertices, edges, faces) == (C.vertices, C.edges, C.faces)
    assert not fl.surface_report(C).connected


def test_many_tori_split_into_tori():
    """A disjoint union of 300 one-vertex tori splits into 300 tori, each
    with its own edges and face, ordered by smallest label (as strings)."""
    ids = range(300)
    C = fl.Complex2({f"v{i}" for i in ids},
                    {f"{x}{i}": (f"v{i}", f"v{i}") for i in ids for x in "AB"},
                    {f"F{i}": ((f"A{i}", 1), (f"B{i}", 1), (f"A{i}", -1), (f"B{i}", -1))
                     for i in ids})
    comps = fl.connected_components(C)
    assert [comp.vertices for comp in comps] == [{v} for v in sorted(C.vertices)]
    for comp in comps:
        i = next(iter(comp.vertices))[1:]
        assert (set(comp.edges), set(comp.faces)) == ({f"A{i}", f"B{i}"}, {f"F{i}"})
        assert fl.surface_report(comp).genus == 1


def two_gon(d) -> fl.Complex2:
    """One 2-gon whose two sides are the same edge a, traversed (a,+1), (a,d)."""
    return fl.Complex2({"p", "q"} if d == -1 else {"p"},
                       {"a": ("p", "q" if d == -1 else "p")}, {"F": (("a", 1), ("a", d))})


def report_fields(r):
    return (r.v, r.e, r.f, r.euler, r.closed_surface, r.orientable, r.connected, r.genus)


def pinched_tori() -> fl.Complex2:
    """Two tori sharing their one vertex, whose link is two circles."""
    return fl.Complex2({"v"}, {x: ("v", "v") for x in "ABCD"},
                       {"F": (("A", 1), ("B", 1), ("A", -1), ("B", -1)),
                        "G": (("C", 1), ("D", 1), ("C", -1), ("D", -1))})


def tori_and_a_vertex() -> fl.Complex2:
    tori = disjoint_union(torus(), torus())
    return fl.Complex2(tori.vertices | {"x"}, tori.edges, tori.faces)


@pytest.mark.parametrize("build,fields", [
    (lambda: two_gon(1), (1, 1, 1, 1, True, False, True, None)),  # RP^2
    (lambda: two_gon(-1), (2, 1, 1, 2, True, True, True, 0)),  # sphere
    (pinched_tori, (1, 4, 2, -1, False, False, True, None)),
    (tori_and_a_vertex, (3, 4, 2, 1, False, False, False, None)),
])
def test_pinned_reports(build, fields):
    assert report_fields(fl.surface_report(build())) == fields


def _reference_links_are_circles(C):
    """The stack search over the corners at each vertex that the corner-graph
    components replaced, kept as the reference."""
    corners = defaultdict(list)
    for walk in C.faces.values():
        for (e1, d1), (e2, d2) in zip(walk, walk[1:] + walk[:1]):
            v = C.edges[e1][1 if d1 == 1 else 0]
            corners[v].append(((e1, 1 if d1 == 1 else 0), (e2, 0 if d2 == 1 else 1)))
    for v in C.vertices:
        cs = corners.get(v, [])
        if not cs:
            return False
        deg = defaultdict(int)
        adj = defaultdict(list)
        for idx, (a, b) in enumerate(cs):
            deg[a] += 1
            deg[b] += 1
            adj[a].append((b, idx))
            adj[b].append((a, idx))
        if any(d != 2 for d in deg.values()):
            return False
        used = set()
        stack = [cs[0][0]]
        seen = {cs[0][0]}
        while stack:
            x = stack.pop()
            for y, idx in adj[x]:
                if idx not in used:
                    used.add(idx)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        if len(used) != len(cs) or len(seen) != len(deg):
            return False
    return True


def _reference_orientable(C, tr):
    """The breadth-first propagation of face orientations that the double
    cover components replaced, kept as the reference."""
    orient = {}
    for start in C.faces:
        if start in orient:
            continue
        orient[start] = 1
        dq = deque([start])
        while dq:
            g = dq.popleft()
            for eid, _ in C.faces[g]:
                (f1, d1), (f2, d2) = tr[eid]
                if f1 == f2:
                    if d1 == d2:
                        return False
                    continue
                other, mine, od = (f2, d1, d2) if f1 == g else (f1, d2, d1)
                need = -orient[g] * mine * od
                if other not in orient:
                    orient[other] = need
                    dq.append(other)
                elif orient[other] != need:
                    return False
    return True


def _reference_report(C):
    v, e, f = len(C.vertices), len(C.edges), len(C.faces)
    euler = v - e + f
    tr = cellcomplex._edge_traversals(C)
    closed = (f > 0 and all(len(tr[eid]) == 2 for eid in C.edges)
              and _reference_links_are_circles(C))
    orientable = closed and _reference_orientable(C, tr)
    connected = len(cellcomplex._vertex_components(C)) <= 1
    genus = (2 - euler) // 2 if closed and orientable and connected else None
    return (v, e, f, euler, closed, orientable, connected, genus)


def glued(sizes, pairs) -> fl.Complex2:
    """Polygons with the given side counts, glued along a side-pairing.

    Side (p, j) of polygon p runs from its corner j to corner j + 1.  Each
    pair (x, y, d) glues side y to side x, running the same way if d = 1 and
    the other way if d = -1; when every side is paired, this is a closed
    surface, not always connected."""
    parent = {(p, j): (p, j) for p, m in enumerate(sizes) for j in range(m)}  # corners

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def nxt(p, j):
        return (p, (j + 1) % sizes[p])

    walk = {}
    for n, (x, y, d) in enumerate(pairs):
        walk[x], walk[y] = (f"E{n}", 1), (f"E{n}", d)
        ends = ((x, y), (nxt(*x), nxt(*y))) if d == 1 else ((x, nxt(*y)), (nxt(*x), y))
        for a, b in ends:
            parent[find(a)] = find(b)
    vertex = {c: "v%d.%d" % find(c) for c in parent}
    edges = {walk[x][0]: (vertex[x], vertex[nxt(*x)]) for x, _, _ in pairs}
    faces = {f"F{p}": tuple(walk[(p, j)] for j in range(m)) for p, m in enumerate(sizes)}
    return fl.Complex2(set(vertex.values()), edges, faces)


def random_gluing(rng) -> fl.Complex2:
    """A seeded side-pairing of 1-4 polygons, each pair glued in a random
    direction."""
    sizes = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
    if sum(sizes) % 2:
        sizes[0] += 1
    sides = [(p, j) for p, m in enumerate(sizes) for j in range(m)]
    rng.shuffle(sides)
    return glued(sizes, [(x, y, rng.choice((1, -1))) for x, y in zip(sides[::2], sides[1::2])])


def bigon_ring(dirs) -> fl.Complex2:
    """len(dirs) 2-gons in a ring, the second side of each glued to the first
    side of the next in direction dirs[i]: a sphere or a projective plane."""
    m = len(dirs)
    return glued([2] * m, [((i, 1), ((i + 1) % m, 0), d) for i, d in enumerate(dirs)])


def pinched(C, rng):
    """C with two of its vertex classes merged into one."""
    a, b = rng.sample(sorted(C.vertices), 2)

    def merge(v):
        return a if v == b else v

    return fl.Complex2(C.vertices - {b},
                       {e: (merge(t), merge(h)) for e, (t, h) in C.edges.items()}, C.faces)


def test_surface_report_matches_the_reference_on_gluings():
    rng = random.Random(7)
    rings = [bigon_ring(dirs) for m in range(1, 6)
             for dirs in itertools.product((1, -1), repeat=m)]
    seen = set()
    for C in itertools.chain((random_gluing(rng) for _ in range(300)), rings):
        r = report_fields(fl.surface_report(C))
        assert r == _reference_report(C), C
        assert r[4], C  # every side-pairing is a closed surface
        seen.add((r[5], r[6]))
        if len(C.vertices) > 1:
            P = pinched(C, rng)
            r = report_fields(fl.surface_report(P))
            assert r == _reference_report(P), P
            assert not r[4], P
            seen.add(("pinched", r[6]))
    # orientable and not, connected and not, and pinches of both kinds
    assert seen >= {(True, True), (False, True), (True, False), (False, False),
                    ("pinched", True), ("pinched", False)}


@pytest.mark.parametrize("build", [
    torus, klein_bottle, fl.build_g42, fl.build_g52, lambda: two_gon(1),
    lambda: two_gon(-1), pinched_tori, tori_and_a_vertex,
    lambda: disjoint_union(torus(), klein_bottle())])
def test_surface_report_matches_the_reference_on_fixtures(build):
    C = build()
    assert report_fields(fl.surface_report(C)) == _reference_report(C)


def test_g42_counts_and_regularity():
    C = fl.build_g42()
    assert len(C.vertices) == 12
    assert len(C.edges) == 24
    assert not C.faces
    degree = {v: 0 for v in C.vertices}
    for a, b in C.edges.values():
        degree[a] += 1
        degree[b] += 1
    assert all(d == 4 for d in degree.values())
    r = fl.surface_report(C)
    assert r.euler == -12 and r.connected and not r.closed_surface
    assert len(fl.connected_components(C)) == 1


def test_g42_neighbors_of_v1():
    C = fl.build_g42()
    nbrs = set()
    for a, b in C.edges.values():
        if a == "v1":
            nbrs.add(b)
        if b == "v1":
            nbrs.add(a)
    assert nbrs == {"v3", "v7", "v10", "v12"}


def test_g52_counts():
    C = fl.build_g52()
    assert len(C.vertices) == 96
    assert len(C.edges) == 160
    assert len(C.faces) == 16
    r = fl.surface_report(C)
    assert r.euler == -48
    assert r.closed_surface and r.connected
    assert len(fl.connected_components(C)) == 1


def _twist(t, eps):
    return tuple(a * b for a, b in zip(t, eps))


def test_g52_vertex_class_sizes():
    # per sign vector the merged classes collect (2, 4, 4, 4, 4, 2) corners
    sizes = {}
    for eps in itertools.product((1, -1), repeat=4):
        for letter in cellcomplex._VSEQ:
            name, tw = cellcomplex._VERTEX_CLASS[letter]
            label = f"{name}|{cellcomplex._sgn(_twist(tw, eps))}"
            sizes[label] = sizes.get(label, 0) + 1
    assert len(sizes) == 96
    by_name = {}
    for label, s in sizes.items():
        by_name.setdefault(label[0], set()).add(s)
    assert by_name == {"a": {2}, "b": {4}, "c": {4}, "d": {4}, "e": {4}, "f": {2}}


def test_g52_every_edge_in_two_faces_same_direction():
    C = fl.build_g52()
    tr = cellcomplex._edge_traversals(C)
    assert all(len(v) == 2 for v in tr.values())
    # the tabulated gluing makes both incident faces traverse every edge
    # forward, which is what defeats the orientation assignment below
    assert all(d1 == 1 and d2 == 1 for (_, d1), (_, d2) in tr.values())


def test_g52_is_not_orientable_with_certificate():
    """The glued surface admits no coherent orientation.

    Every identified edge pair is traversed in the same direction by its
    two faces (forced by the tabulated vertex classes), so an orientation
    assignment must alternate across face adjacency; the three faces
    indexed by e, tD*e, tA*e are pairwise adjacent (through the D/G, N/Q
    and A/K gluings, since tN*tD = tA), an odd cycle.  The surface is the
    connected non-orientable one with Euler characteristic -48.

    This rests on the transcribed _VERTEX_CLASS/_EDGE_CLASS tables.  The
    independent confirmation is
    test_acceptance.test_g52_conjugation_reverses_orientation, which
    transports a tangent orientation of planar 5-frames modulo rotation
    from z to conj(z) with the planar path API alone and finds that
    conjugation reverses it, so F/O(2) is non-orientable.
    """
    r = fl.surface_report(fl.build_g52())
    assert r.closed_surface and r.connected and r.euler == -48
    assert not r.orientable
    assert r.genus is None
    # the odd-cycle certificate, checked directly on the face adjacency
    tD = (-1, 1, -1, -1)
    tA = (-1, -1, 1, 1)
    tN = (1, -1, -1, -1)
    assert tuple(a * b for a, b in zip(tN, tD)) == tA
    e0 = (1, 1, 1, 1)
    tri = [e0, tD, tA]
    labels = [f"B|{cellcomplex._sgn(e)}" for e in tri]
    C = fl.build_g52()
    tr = cellcomplex._edge_traversals(C)
    adjacency = {frozenset((f1, f2)) for (f1, _), (f2, _) in tr.values() if f1 != f2}
    for i in range(3):
        assert frozenset((labels[i], labels[(i + 1) % 3])) in adjacency


def _letter_by_letter_g52():
    """(vertices, edges, faces) of G^R_{5,2} built as the tables read: each
    raw letter's class label from _sgn(_twist(...)), at both ends of every
    edge, with the gluing direction read off the first traversal."""
    sgn, twist = cellcomplex._sgn, _twist
    vertices, edges, faces = set(), {}, {}
    for eps in itertools.product((1, -1), repeat=4):
        walk = []
        for i, letter in enumerate(cellcomplex._ESEQ):
            ends = []
            for raw in (cellcomplex._VSEQ[i], cellcomplex._VSEQ[(i + 1) % 20]):
                name, tw = cellcomplex._VERTEX_CLASS[raw]
                ends.append(f"{name}|{sgn(twist(tw, eps))}")
            vertices.update(ends)
            name, tw = cellcomplex._EDGE_CLASS[letter]
            label = f"{name}|{sgn(twist(tw, eps))}"
            first = edges.setdefault(label, tuple(ends))
            assert first in (tuple(ends), tuple(ends[::-1]))
            walk.append((label, 1 if first == tuple(ends) else -1))
        faces[f"B|{sgn(eps)}"] = tuple(walk)
    return vertices, edges, faces


def test_g52_matches_the_letter_by_letter_build():
    vertices, edges, faces = _letter_by_letter_g52()
    C = fl.build_g52()
    assert C.vertices == vertices
    assert list(C.edges.items()) == list(edges.items())  # insertion order too
    assert list(C.faces.items()) == list(faces.items())


@pytest.mark.parametrize("which,digest", [
    ("g42", "b8a141e0f811bc0a4ae9e731523da6a70a772cc187118a68817507b98a686651"),
    ("g52", "1656bce76388709663e7c43e49af78af407dc33dd84344dffc391db7dd91c410")])
def test_complex_stdout_is_pinned(capsys, which, digest):
    """`framelab complex` prints the same bytes as the original string build."""
    assert cli.main(["complex", which]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


#: one value of every framelab value type: a builder of it, and a field and a
#: value that differ from it (arrays are shared, so built values compare)
_U, _POINTS = np.eye(2), fl.enumerate_one_redundant(2).points
RECORDS = {
    "Frame": (lambda: fl.Frame("R", fl.simplex_frame(2).entries), "field", "C"),
    "EllipsoidSpec": (lambda: fl.EllipsoidSpec((2.0, 1.0)), "axes", (3.0, 1.0)),
    "FrameBounds": (lambda: fl.FrameBounds(1.0, 2.0), "upper", 3.0),
    "GramPoint": (lambda: fl.gram(fl.simplex_frame(2)), "n", 1),
    "OrbitWitness": (lambda: fl.OrbitWitness(_U, 0.0), "residual", 1e-3),
    "GramCheck": (lambda: fl.GramCheck(True, True, True, False), "rank_ok", True),
    "OneRedundantEnumeration": (lambda: fl.OneRedundantEnumeration(_POINTS, 2, 1),
                                "sign_orbits", 2),
    "Partition": (lambda: fl.Partition(3, [(3, 1), (2,)]), "blocks", ((1, 2, 3),)),
    "TangentReport": (lambda: fl.TangentReport(1, False, 0, 3), "regular", True),
    "PlanarFrame": (lambda: fl.PlanarFrame([1, 1j, 1, 1j]), "tol", 1e-6),
    "Chain": (lambda: fl.Chain([1, -1, 1, -1]), "tol", 1e-6),
    "FramePath": (lambda: fl.FramePath("chain", [0, 1], [[1, -1, 1, -1]] * 2, 0.1),
                  "kind", "planar"),
    "PathReport": (lambda: fl.planar.PathReport(True, 0.0, 0.0, 0.1, 0.1, 0.0, 0.0, 0.0,
                                                0.0, 0), "worst_index", 1),
    "Complex2": (torus, "faces", klein_bottle().faces),
    "SurfaceReport": (lambda: fl.surface_report(torus()), "orientable", False),
}
#: the records with no array or mapping field, which hash by their fields
HASHABLE = {"EllipsoidSpec", "FrameBounds", "GramCheck", "Partition", "TangentReport",
            "PathReport", "SurfaceReport"}


def _same_fields(x, y) -> bool:
    return type(x) is type(y) and list(vars(x)) == list(vars(y)) and all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in zip(vars(x).values(), vars(y).values()))


@pytest.mark.parametrize("name", RECORDS)
def test_record_types_keep_fields_equality_and_repr(name):
    """Every value type is a read-only `_Record` with equality, hash and repr
    by its fields in constructor order."""
    build, field, value = RECORDS[name]
    x = build()
    assert type(x).__name__ == name and isinstance(x, defaults._Record)
    assert list(vars(x)) == list(inspect.signature(type(x)).parameters)
    assert repr(x) == f"{name}({', '.join(f'{k}={v!r}' for k, v in vars(x).items())})"
    assert x == x and x == copy.copy(x) and x != tuple(vars(x).values())
    changed = copy.copy(x)
    vars(changed)[field] = value
    assert changed != x and x != changed
    if name in HASHABLE:
        assert x == build() and hash(x) == hash(build()) == hash(tuple(vars(x).values()))
    else:
        with pytest.raises(TypeError):
            hash(x)
    fields = dict(vars(x))
    for attempt in (lambda: setattr(x, field, value), lambda: setattr(x, "extra", 1),
                    lambda: delattr(x, field)):
        with pytest.raises(AttributeError, match=f"^{name} is read-only"):
            attempt()
    assert vars(x) == fields
    x = build()
    assert _same_fields(pickle.loads(pickle.dumps(x)), x)
    assert _same_fields(copy.deepcopy(x), x)


def test_surface_records_repr_literally():
    C = torus()
    assert C == torus() and C != klein_bottle()
    assert repr(C) == f"Complex2(vertices={C.vertices!r}, edges={C.edges!r}, faces={C.faces!r})"
    r = fl.surface_report(C)
    assert repr(r) == ("SurfaceReport(v=1, e=2, f=1, euler=0, closed_surface=True, "
                       "orientable=True, connected=True, genus=1)")
    assert r == fl.surface_report(torus()) and r != fl.surface_report(klein_bottle())


def test_no_caller_can_change_a_complex():
    """Every producer returns a frozen complex, so a shared build cannot be
    changed by one caller under another."""
    decoded = jsonio.complex_from_dict(jsonio.complex_to_dict(fl.build_g52()))
    split = fl.connected_components(disjoint_union(torus(), torus()))
    for C in (fl.build_g42(), fl.build_g52(), decoded, split[0],
              fl.connected_components(torus())[0], torus()):
        with pytest.raises(AttributeError):
            C.vertices.add("x")
        with pytest.raises(TypeError):
            C.edges["X|++++"] = ("x", "x")
        with pytest.raises(AttributeError):
            C.faces.clear()
        assert type(C.vertices) is frozenset
        assert type(C.edges) is type(C.faces) is types.MappingProxyType
    assert fl.build_g52() == fl.Complex2(*_letter_by_letter_g52())
    assert fl.build_g42() is fl.build_g42() and fl.build_g52() is fl.build_g52()


def test_complex_keeps_its_own_copies():
    """Changing the set and dicts given to the constructor afterwards leaves
    the complex as it was checked."""
    vertices, edges = {"v"}, {"A": ("v", "v"), "B": ("v", "v")}
    faces = {"F": (("A", 1), ("B", 1), ("A", -1), ("B", -1))}
    C = fl.Complex2(vertices, edges, faces)
    vertices.add("w")
    edges["A"] = ("v", "w")
    faces.clear()
    assert C == torus() and fl.surface_report(C).genus == 1
    with pytest.raises(TypeError):
        hash(C)
    with pytest.raises(TypeError):
        hash(fl.build_g52())


@pytest.mark.parametrize("build", [torus, fl.build_g42, fl.build_g52])
def test_pickle_and_copy_go_through_the_constructor(build):
    C = build()
    for twin in (pickle.loads(pickle.dumps(C)), copy.copy(C), copy.deepcopy(C)):
        assert twin == C and twin is not C
        assert type(twin.vertices) is frozenset
        assert type(twin.edges) is type(twin.faces) is types.MappingProxyType


def test_tampered_pickle_is_refused():
    """A pickle whose edge end was rewritten to an undeclared label is
    refused on load, as the constructor refuses it."""
    end = "".join(["p", "x"])  # not the vertex's string object, so pickled apart
    data = pickle.dumps(fl.Complex2({"px"}, {"A": (end, end)}, {}))
    at = data.rindex(b"px")
    with pytest.raises(ValueError, match="edge 'A' has undeclared endpoint"):
        pickle.loads(data[:at] + b"py" + data[at + 2:])


@pytest.mark.parametrize("build", [fl.build_g52, fl.build_g42, torus])
def test_a_connected_complex_is_its_own_component(build):
    """torus is the torus fixture of demos/04_surface_complexes.py."""
    C = build()
    comps = fl.connected_components(C)
    assert comps == [C] and comps[0] is C


def test_g52_transcription_check_fires_after_a_build(monkeypatch):
    """A changed table is glued again, so its check fires even after a good build."""
    assert fl.surface_report(fl.build_g52()).closed_surface
    bad = dict(cellcomplex._VERTEX_CLASS)
    bad["k"] = ("b", cellcomplex._VERTEX_CLASS["k"][1])
    monkeypatch.setattr(cellcomplex, "_VERTEX_CLASS", bad)
    with pytest.raises(ValueError, match="transcription"):
        fl.build_g52()
    monkeypatch.undo()
    assert fl.build_g52() == fl.Complex2(*_letter_by_letter_g52())


def test_g52_transcription_check_fires(monkeypatch):
    # corrupt one vertex-class entry: the forced endpoint matching must abort
    bad = dict(cellcomplex._VERTEX_CLASS)
    bad["k"] = ("b", cellcomplex._VERTEX_CLASS["k"][1])
    monkeypatch.setattr(cellcomplex, "_VERTEX_CLASS", bad)
    with pytest.raises(ValueError, match="transcription"):
        fl.build_g52()


def test_complex_validation():
    with pytest.raises(ValueError):
        fl.Complex2({"a"}, {"E": ("a", "zz")}, {})
    with pytest.raises(ValueError):
        fl.Complex2({"a", "b"}, {"E": ("a", "b")}, {"F": (("E", 1),)})  # not closed
    loop = {"E": ("a", "a")}
    for message, faces in {"face 'F' uses undeclared edge 'X'": {"F": (("X", 1),)},
                           "face 'F' has direction 2": {"F": (("E", 2),)},
                           # the codec's rule: True, 1.0 and numpy ints are no JSON dir
                           "face 'F' has direction True": {"F": (("E", True), ("E", -1))},
                           "face 'F' has direction 1.0": {"F": (("E", 1.0), ("E", -1))},
                           "face 'F' has direction np.int64(-1)":
                               {"F": (("E", 1), ("E", np.int64(-1)))},
                           "face 'F' has an empty boundary": {"F": ()},
                           "an edge appears more than twice in face boundaries":
                               {"F": (("E", 1),), "G": (("E", 1),), "H": (("E", -1),)}}.items():
        with pytest.raises(ValueError) as err:
            fl.Complex2({"a"}, loop, faces)
        assert str(err.value) == message
    ab = {"E": ("a", "b")}
    for message, vertices, edges, faces in [
            # the first bad step in walk order: the direction before the unknown edge
            ("face 'F' has direction 2", {"a"}, loop, {"F": (("E", 2), ("X", 1))}),
            ("face 'F' boundary is not a closed walk", {"a", "b"}, ab, {"F": (("E", 1),)}),
            # twice in one face and once in another
            ("an edge appears more than twice in face boundaries", {"a"}, loop,
             {"F": (("E", 1), ("E", -1)), "G": (("E", 1),)})]:
        with pytest.raises(ValueError) as err:
            fl.Complex2(vertices, edges, faces)
        assert str(err.value) == message


def _numpy_components(adj):
    """The numpy frontier BFS that the bitmask _components replaced, kept as
    the reference: index arrays ordered by their smallest index."""
    adj = np.asarray(adj, dtype=bool)
    seen = np.zeros(len(adj), dtype=bool)
    comps = []
    while not seen.all():
        member = frontier = np.arange(len(adj)) == np.argmin(seen)
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~member
            member = member | frontier
        seen |= member
        comps.append(np.flatnonzero(member))
    return comps


def _assert_same_components(adj):
    adj = np.asarray(adj, dtype=bool)
    rows = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in adj]
    expected = [c.tolist() for c in _numpy_components(adj)]
    assert cellcomplex._components(len(rows), rows.__getitem__) == expected
    return expected


def _skeleton(C):
    labels = sorted(C.vertices, key=str)
    index = {v: i for i, v in enumerate(labels)}
    adj = np.zeros((len(labels), len(labels)), dtype=bool)
    for a, b in C.edges.values():
        adj[index[a], index[b]] = adj[index[b], index[a]] = True
    return adj


def _support(M, tol=fl.DEFAULT_TOL):
    """The symmetric support graph commutant_partition takes components of."""
    s = np.abs(M) > tol * np.max(np.abs(M))
    return s | s.T


def test_components_match_the_numpy_reference_on_random_graphs():
    rng = np.random.default_rng(20)
    for k in (1, 2, 3, 7, 16, 33, 64):
        for density in (0.0, 0.02, 0.08, 0.3):
            adj = rng.random((k, k)) < density
            _assert_same_components(adj | adj.T)
    # disjoint cycles of 1-6 nodes on shuffled indices, the corner graph's shape
    order = rng.permutation(300)
    cuts = np.cumsum(rng.integers(1, 7, size=100))
    adj = np.zeros((300, 300), dtype=bool)
    for cycle in np.split(order, cuts[cuts < 300]):
        adj[cycle, np.roll(cycle, 1)] = adj[np.roll(cycle, 1), cycle] = True
    assert len(_assert_same_components(adj)) == np.count_nonzero(cuts < 300) + 1


def test_components_match_the_numpy_reference_on_supports():
    assert _assert_same_components(np.zeros((0, 0), dtype=bool)) == []
    rng = np.random.default_rng(21)
    halves = [fl.gram(fl.random_tight_frame(6, 3, "R", rng, spread=0.05)).entries
              for _ in range(2)]
    block = np.zeros((12, 12))
    block[:6, :6], block[6:, 6:] = halves
    perm = rng.permutation(12)
    for M in (block, block[np.ix_(perm, perm)]):
        comps = _assert_same_components(_support(M))
        assert sorted(map(len, comps)) == [6, 6]
        P = fl.commutant_partition(M)
        assert [list(b) for b in P.blocks] == [[i + 1 for i in c] for c in comps]
    big = fl.gram(fl.random_tight_frame(400, 7, "R", rng)).entries
    assert _assert_same_components(_support(big)) == [list(range(400))]
    assert fl.commutant_partition(big).blocks == (tuple(range(1, 401)),)


@pytest.mark.parametrize("build,count", [
    (fl.build_g42, 1), (fl.build_g52, 1),
    (lambda: disjoint_union(fl.build_g42(), disjoint_union(torus(), fl.build_g42())), 3)])
def test_components_match_the_numpy_reference_on_skeletons(build, count):
    assert len(_assert_same_components(_skeleton(build()))) == count
