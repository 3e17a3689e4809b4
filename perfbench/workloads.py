"""The four framelab workloads: seeded inputs, items, and their correctness gates.

A workload's `setup(seed, lib)` returns a pool: a list of rounds, each round
one cycle of the workload's mix, each item a ``(label, fn, args)`` triple
run as ``fn(lib, tracer, *args)``.  An item raises CheckFailed when an
output is wrong.  Every library call goes through `lib`, so a traced run
records one span per call.  The expected values are the ones the unit
tests pin today.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import numpy as np

import harness
from harness import expect


def _close(a, b, tol: float) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol


# ---------------------------------------------------------------------------
# cli-pipes: the README pipelines, one subprocess per stage


def _cli_argv(stage):
    return [sys.executable, "-m", "framelab.cli", *stage]


def _check_verify(lib, out, n, k):
    doc = json.loads(out)
    expect(doc["pass"] is True and (doc["n"], doc["k"]) == (n, k), f"verify said {doc}")


def _check_g52_report(lib, out):
    doc = json.loads(out)
    got = (doc["v"], doc["e"], doc["f"], doc["euler"], doc["closed_surface"],
           doc["orientable"], doc["connected"])
    expect(got == (96, 160, 16, -48, True, False, True), f"g52 surface report {doc}")


def _check_tangent(lib, out, k):
    doc = json.loads(out)
    expect(doc["rank"] == k - 1 and doc["regular"] is True, f"tangent report {doc}")


def _check_connect(lib, out, start, end):
    tr = lib.tracer
    with tr.span("jsonio.decode"):
        path = lib.jsonio.path_from_dict(json.loads(out))
    tr.count("jsonio.bytes_in", len(out))
    tr.count("planar.samples", len(path.ts))
    rep = lib.planar.validate_path(path, expect_start=start, expect_end=end)
    expect(rep.ok, f"planar-connect path invalid: {rep}")


class CliPipes:
    name = "cli-pipes"
    rounds = 2

    def __init__(self):
        self.env = harness.child_env()
        self.peak_child_kib = 0

    def setup(self, seed: int, lib):
        rng = np.random.default_rng(seed)
        end = lib.planar.canonical_planar(6).z
        pool = []
        for _ in range(self.rounds):
            z = lib.planar.random_planar_frame(6, rng)
            frame = json.dumps(lib.jsonio.frame_to_dict(lib.planar.from_planar(z.z))).encode()
            pool.append([
                ("simplex|verify", self.pipe,
                 ([["simplex", "--n", "3"], ["verify", "-"]], b"", _check_verify, (3, 4))),
                ("complex g52|surface-report", self.pipe,
                 ([["complex", "g52"], ["surface-report", "-"]], b"", _check_g52_report, ())),
                ("simplex|gram|complement|frame-from-gram|verify", self.pipe,
                 ([["simplex", "--n", "2"], ["gram", "-"], ["complement", "-"],
                   ["frame-from-gram", "-"], ["verify", "-"]], b"", _check_verify, (1, 3))),
                ("regular-point|tangent", self.pipe,
                 ([["regular-point", "--k", "6", "--n", "3"], ["tangent", "-"]], b"",
                  _check_tangent, (6,))),
                ("planar-connect", self.pipe,
                 ([["planar-connect", "-"]], frame, _check_connect, (z.z, end))),
            ])
        return pool

    def pipe(self, lib, tr, stages, stdin, check, check_args):
        """Stages run one after another, each fed the previous stage's stdout."""
        data = stdin
        for stage in stages:
            with tr.span("cli.process", is_call=True):
                code, data, err, rss = harness.run_child(_cli_argv(stage), data, self.env)
            self.peak_child_kib = max(self.peak_child_kib, rss)
            expect(code == 0, f"{' '.join(stage)} exited {code}: {err.decode()[-300:]}")
        check(lib, data, *check_args)

    def peak_rss_kib(self) -> int:
        return self.peak_child_kib

    def probe(self, lib, pool) -> float:
        """Run every stage of one round in-process through cli.main with
        redirected stdio; returns the total ms spent in cli.main."""
        tr = lib.tracer
        tr.item = "probe"
        for label, _, (stages, stdin, check, check_args) in pool[0]:
            data = stdin
            for stage in stages:
                fin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
                fout = io.StringIO()
                saved = sys.stdin
                sys.stdin = fin
                try:
                    with contextlib.redirect_stdout(fout):
                        code = lib.cli.main(list(stage))
                finally:
                    sys.stdin = saved
                expect(code == 0, f"in-process {label}: {' '.join(stage)} returned {code}")
                data = fout.getvalue().encode()
        tr.item = None
        return sum(harness.span_ms(tr, "cli.main", "probe"))


# ---------------------------------------------------------------------------
# gram-grid: the dense spectral path through frames, grassmann, stratification

REAL_SHAPES = ((6, 3), (12, 5), (24, 12), (48, 24), (64, 24))
COMPLEX_SHAPES = ((9, 4), (16, 7), (30, 7), (40, 13))
REGULAR_POINTS = ((48, 24), (64, 24))
#: kick size for random_tight_frame: large enough for a generic Gram point,
#: small enough that the retraction converges on every grid shape
SPREAD = 0.05
PARTITION_K, PARTITION_N = 400, 7


def _frame_item(lib, tr, F, rank, blocks):
    _point_item(lib, tr, lib.grassmann.gram(F), rank, blocks)


def _point_item(lib, tr, R, rank, blocks):
    """Gram point checks -> recovered frame -> complements -> tangent -> partition."""
    fr, gr, st = lib.frames, lib.grassmann, lib.stratification
    k, n = R.k, R.n
    expect(gr.is_gram_point(R.entries, n).ok, f"({k},{n}) is not a Gram point")
    F = gr.frame_from_gram(R)
    tight, bound = fr.is_tight(F)
    expect(tight and fr.is_spherical(F), f"recovered ({k},{n}) frame not spherical tight")
    b = fr.frame_bounds(F)
    expect(abs(b.lower - k / n) <= 1e-9 * k and abs(b.upper - k / n) <= 1e-9 * k
           and abs(bound - k / n) <= 1e-9 * k, f"({k},{n}) frame bounds {b}")
    expect(_close(F.conj_transpose() @ F.entries, R.entries, 1e-9),
           f"recovered ({k},{n}) frame has another Gram point")
    C = gr.complement(R)
    expect(C.n == k - n and _close(gr.complement(C).entries, R.entries, 1e-12),
           f"({k},{n}) complement is not an involution")
    T = st.tangent_report(R)
    expect(T.rank == rank and T.regular == (rank == k - 1),
           f"({k},{n}) tangent rank {T.rank}, expected {rank}")
    tr.count("stratification.tangent_report.columns",
             n * (k - n) * (2 if R.field == "C" else 1))
    P = st.commutant_partition(R.entries)
    expect(sorted(len(blk) for blk in P.blocks) == blocks,
           f"({k},{n}) commutant partition {P.blocks}")
    tr.count("stratification.commutant_partition.pairs", k * (k - 1) // 2)


def _partition_item(lib, tr, R):
    P = lib.stratification.commutant_partition(R.entries)
    expect(P.trivial, f"k={R.k} harmonic point split into {len(P)} blocks")
    tr.count("stratification.commutant_partition.pairs", R.k * (R.k - 1) // 2)


class GramGrid:
    name = "gram-grid"
    rounds = 4

    def setup(self, seed: int, lib):
        rng = np.random.default_rng(seed)
        st, gr = lib.stratification, lib.grassmann
        regular = [st.construct_regular_point(k, n) for k, n in REGULAR_POINTS]
        pool = []
        for _ in range(self.rounds):
            rnd = [(f"{field}({k},{n})", _frame_item,
                    (st.random_tight_frame(k, n, field, rng, spread=SPREAD), k - 1, [k]))
                   for field, shapes in (("R", REAL_SHAPES), ("C", COMPLEX_SHAPES))
                   for k, n in shapes]
            rnd += [(f"regular({R.k},{R.n})", _point_item, (R, R.k - 1, [R.k]))
                    for R in regular]
            # two (6,3) blocks on the diagonal: a non-regular point of rank 10
            halves = [gr.gram(st.random_tight_frame(6, 3, "R", rng, spread=SPREAD)).entries
                      for _ in range(2)]
            block = np.zeros((12, 12))
            block[:6, :6], block[6:, 6:] = halves
            rnd.append(("block(12,6)", _point_item, (gr.GramPoint("R", 6, block), 10, [6, 6])))
            big = gr.gram(st.random_tight_frame(PARTITION_K, PARTITION_N, "R", rng))
            rnd.append((f"partition k={PARTITION_K}", _partition_item, (big,)))
            pool.append(rnd)
        return pool


# ---------------------------------------------------------------------------
# planar-paths: per-sample Python in planar, the large path codec in jsonio

PLANAR_KS = (5, 9, 17, 33, 65)


def _path_item(lib, tr, z, end):
    pl, js = lib.planar, lib.jsonio
    path = pl.connect_to_standard(z)
    tr.count("planar.samples", len(path.ts))
    rep = pl.validate_path(path, expect_start=z.z, expect_end=end)
    expect(rep.ok, f"k={z.k} path invalid: {rep}")
    with tr.span("jsonio.encode"):
        text = json.dumps(js.path_to_dict(path))
    with tr.span("jsonio.decode"):
        back = js.path_from_dict(json.loads(text))
    tr.count("jsonio.bytes_out", len(text))
    tr.count("jsonio.bytes_in", len(text))
    same = (back.kind == path.kind and back.max_step == path.max_step
            and np.array(back.ts).tobytes() == np.array(path.ts).tobytes()
            and np.stack(back.points).tobytes() == np.stack(path.points).tobytes())
    expect(same, f"k={z.k} path JSON round trip is not bit-identical")


def _holonomy_item(lib, tr, loop, sign):
    got = lib.grassmann.holonomy_sign(loop)
    tr.count("grassmann.holonomy_sign.steps", len(loop) - 1)
    expect(got == sign, f"holonomy sign {got}, expected {sign}")


class PlanarPaths:
    name = "planar-paths"
    #: path cost depends on the frame, the more for small k; a run measures
    #: about seven rounds, and with a fresh frame in each the seed moves the
    #: median item by ~3% instead of ~14% with four rounds reused
    rounds = 8
    #: frames per k in a round; with the three loops a round has 13 items, so
    #: the median and p90 fall inside one k's items rather than between two
    per_k = 2

    def setup(self, seed: int, lib):
        rng = np.random.default_rng(seed)
        pl = lib.planar
        case1 = pl.to_gram_loop(pl.case1_explicit_path())
        loops = [("case-1 loop", case1, -1),
                 ("case-3 loop", pl.to_gram_loop(pl.case3_explicit_path()), -1),
                 ("doubled case-1 loop", case1 + case1[1:], 1)]
        ends = {k: pl.canonical_planar(k).z for k in PLANAR_KS}
        pool = []
        for _ in range(self.rounds):
            rnd = [(f"path k={k}", _path_item, (pl.random_planar_frame(k, rng), ends[k]))
                   for k in PLANAR_KS for _ in range(self.per_k)]
            rnd += [(label, _holonomy_item, (loop, sign)) for label, loop, sign in loops]
            pool.append(rnd)
        return pool


# ---------------------------------------------------------------------------
# topology: pure-Python dict and loop code in cellcomplex and the enumeration

ENUM_NS = range(6, 13)
#: (v, e, f, euler, closed, orientable, connected) as the unit tests pin them
SURFACES = {"g42": (12, 24, 0, -12, False, False, True),
            "g52": (96, 160, 16, -48, True, False, True)}


def _complex_item(lib, tr, which):
    cc, js = lib.cellcomplex, lib.jsonio
    C = cc.build_g42() if which == "g42" else cc.build_g52()
    with tr.span("jsonio.encode"):
        text = json.dumps(js.complex_to_dict(C))
    with tr.span("jsonio.decode"):
        back = js.complex_from_dict(json.loads(text))
    tr.count("jsonio.bytes_out", len(text))
    tr.count("jsonio.bytes_in", len(text))
    expect((back.vertices, back.edges, back.faces) == (C.vertices, C.edges, C.faces),
           f"{which} JSON round trip changed the complex")
    r = cc.surface_report(back)
    tr.count("cellcomplex.cells", r.v + r.e + r.f)
    got = (r.v, r.e, r.f, r.euler, r.closed_surface, r.orientable, r.connected)
    expect(got == SURFACES[which], f"{which} surface report {r}")
    expect(len(cc.connected_components(back)) == 1, f"{which} is not one component")


def _enum_item(lib, tr, n):
    res = lib.grassmann.enumerate_one_redundant(n)
    tr.count("grassmann.enumerate_one_redundant.points", len(res.points))
    got = (len(res.points), res.permutation_orbits, res.sign_orbits)
    expect(got == (2 ** n, math.ceil(n / 2) + 1, 1), f"enumeration n={n} gave {got}")


class Topology:
    name = "topology"
    rounds = 2

    def setup(self, seed: int, lib):
        rng = np.random.default_rng(seed)
        items = ([(which, _complex_item, (which,)) for which in SURFACES]
                 + [(f"enumerate n={n}", _enum_item, (n,)) for n in ENUM_NS])
        return [[items[i] for i in rng.permutation(len(items))] for _ in range(self.rounds)]


WORKLOADS = {w.name: w for w in (CliPipes, GramGrid, PlanarPaths, Topology)}

#: `<name>.busy_ms` metrics: each sums the spans of one function, except
#: cellcomplex.build, which sums build_g42 and build_g52
NAMED_SPANS = {name: (name,) for name in (
    "jsonio.encode", "jsonio.decode",
    "planar.connect_to_standard", "planar.validate_path",
    "grassmann.holonomy_sign", "grassmann.gram", "grassmann.is_gram_point",
    "grassmann.frame_from_gram", "grassmann.complement",
    "grassmann.enumerate_one_redundant",
    "stratification.tangent_report", "stratification.commutant_partition",
    "frames.is_tight", "frames.frame_bounds",
    "cellcomplex.surface_report", "cellcomplex.connected_components")}
NAMED_SPANS["cellcomplex.build"] = ("cellcomplex.build_g42", "cellcomplex.build_g52")

#: counts recorded by the items, with their units; the two "computed" counts
#: come from the shapes, not from inside the library
COUNTS = {
    "jsonio.bytes_out": "bytes",
    "jsonio.bytes_in": "bytes",
    "planar.samples": "count",
    "grassmann.holonomy_sign.steps": "count",
    "stratification.tangent_report.columns": "count-computed",
    "stratification.commutant_partition.pairs": "count-computed",
    "cellcomplex.cells": "count",
    "grassmann.enumerate_one_redundant.points": "count",
}
