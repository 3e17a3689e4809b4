import itertools

import pytest

import framelab as fl
from framelab import cellcomplex


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
    merged = fl.Complex2(set(), {}, {})
    for comp in comps:
        merged.vertices |= comp.vertices
        merged.edges.update(comp.edges)
        merged.faces.update(comp.faces)
    assert (merged.vertices, merged.edges, merged.faces) == (C.vertices, C.edges, C.faces)
    assert not fl.surface_report(C).connected


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


def test_g52_vertex_class_sizes():
    # per sign vector the merged classes collect (2, 4, 4, 4, 4, 2) corners
    sizes = {}
    for eps in itertools.product((1, -1), repeat=4):
        for letter in cellcomplex._VSEQ:
            name, tw = cellcomplex._VERTEX_CLASS[letter]
            label = f"{name}|{cellcomplex._sgn(cellcomplex._twist(tw, eps))}"
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
