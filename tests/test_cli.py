import argparse
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab as fl
from framelab import cli, jsonio


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_simplex_then_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "simplex", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    path = write(tmp_path, "f.json", doc)
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["tight"] and abs(rep["tight_bound"] - 4 / 3) < 1e-12


def test_verify_fails_on_non_tight(tmp_path, capsys):
    F = fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float))
    path = write(tmp_path, "f.json", jsonio.frame_to_dict(F))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    rep = json.loads(out)
    assert not rep["tight"]
    assert rep["lower"] == pytest.approx(1.0)
    assert rep["upper"] == pytest.approx(2.0)


def test_verify_with_axes(tmp_path, capsys):
    F = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))
    path = write(tmp_path, "f.json", jsonio.frame_to_dict(F))
    code, out, _ = run(capsys, "verify", path, "--axes", "1,1")
    assert code == 0
    assert json.loads(out)["expected_tight_bound"] == pytest.approx(2.0)


def test_gram_complement_frame_round(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.simplex_frame(2)))
    code, out, _ = run(capsys, "gram", fpath)
    assert code == 0
    gpath = write(tmp_path, "g.json", json.loads(out))
    code, out, _ = run(capsys, "complement", gpath)
    assert code == 0
    comp = jsonio.gram_from_dict(json.loads(out))
    assert comp.n == 1
    code, out, _ = run(capsys, "frame-from-gram", gpath)
    assert code == 0
    F = jsonio.frame_from_dict(json.loads(out))
    assert fl.same_orbit(F, fl.simplex_frame(2)) is not None


def test_dims_and_enumerate(capsys):
    code, out, _ = run(capsys, "dims", "--k", "5", "--n", "2", "--field", "R")
    assert code == 0 and json.loads(out) == {"dimG": 2, "dimF": 3, "dimN": 2, "dimM": 3}
    code, out, _ = run(capsys, "enumerate-1red", "--n", "3")
    doc = json.loads(out)
    assert doc == {"count": 8, "permutation_orbits": 3, "sign_orbits": 1}


def test_simplex_prints_the_simplex_frame_document(capsys):
    """simplex, which prints from closed-form floats without numpy, writes
    the bytes of simplex_frame's document."""
    for n in range(1, 41):
        code, out, _ = run(capsys, "simplex", "--n", str(n))
        with contextlib.redirect_stdout(io.StringIO()) as want:
            jsonio.write_json(jsonio.frame_to_dict(fl.simplex_frame(n)))
        assert code == 0 and out == want.getvalue(), n


def test_dims_prints_the_closed_forms(capsys):
    for field in ("R", "C"):
        for k in range(2, 13):
            for n in range(1, k):
                code, out, _ = run(capsys, "dims", "--k", str(k), "--n", str(n),
                                   "--field", field)
                if field == "R":
                    dim_g, dim_f = (k - n - 1) * (n - 1), (k - n / 2 - 1) * (n - 1)
                else:
                    dim_g = dim_f = 2 * n * (k - n) - k + 1
                    dim_f += n * n
                assert code == 0
                assert json.loads(out) == {"dimG": dim_g, "dimF": dim_f, "dimN": dim_g,
                                           "dimM": dim_f}, (k, n, field)


def test_enumerated_points_encode_point_by_point(capsys):
    """The stacked points print as the Gram documents of the per-point
    GramPoints, sign pattern b = 0 ... 7 in order."""
    code, out, _ = run(capsys, "enumerate-1red", "--n", "3", "--points")
    points = []
    for b in range(8):
        v = np.array([1.0] + [1.0 - 2 * ((b >> j) & 1) for j in range(3)]) / np.sqrt(4)
        points.append(jsonio.gram_to_dict(fl.GramPoint("R", 1, 4 * np.outer(v, v))))
    doc = {"count": 8, "permutation_orbits": 3, "sign_orbits": 1, "points": points}
    assert code == 0 and out == json.dumps(doc, separators=(",", ":")) + "\n"


def test_partition_and_tangent(tmp_path, capsys):
    F = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))
    gpath = write(tmp_path, "g.json", jsonio.gram_to_dict(fl.gram(F)))
    code, out, _ = run(capsys, "partition", gpath)
    assert code == 0 and json.loads(out)["blocks"] == [[1, 3], [2, 4]]
    code, out, _ = run(capsys, "tangent", gpath)
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2 and not rep["regular"]


def test_tol_decides_the_tangent_rank(tmp_path, capsys):
    from test_stratification import givens_point

    # the halves couple through Gram entries of about 7e-6
    gpath = write(tmp_path, "g.json", jsonio.gram_to_dict(givens_point("R", 1e-5)))
    for flags, doc in [((), {"rank": 11, "regular": True, "stratum_dim": 25}),
                       (("--tol", "1e-3"), {"rank": 10, "regular": False, "stratum_dim": 8})]:
        code, out, _ = run(capsys, "tangent", gpath, *flags)
        assert code == 0 and json.loads(out) == dict(doc, ambient_dim=36)


def test_regular_point_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "regular-point", "--k", "6", "--n", "3")
    assert code == 0
    gpath = write(tmp_path, "g.json", json.loads(out))
    code, out, _ = run(capsys, "tangent", gpath)
    assert code == 0 and json.loads(out)["regular"]


def test_complex_surface_report_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "complex", "g52")
    assert code == 0
    cpath = write(tmp_path, "c.json", json.loads(out))
    code, out, _ = run(capsys, "surface-report", cpath)
    assert code == 0
    rep = json.loads(out)
    assert rep["euler"] == -48 and rep["v"] == 96 and rep["e"] == 160
    assert rep["closed_surface"] and rep["connected"]


def test_complex_g42_report(tmp_path, capsys):
    code, out, _ = run(capsys, "complex", "g42")
    cpath = write(tmp_path, "c.json", json.loads(out))
    code, out, _ = run(capsys, "surface-report", cpath)
    assert code == 0
    rep = json.loads(out)
    assert rep["euler"] == -12 and not rep["closed_surface"] and rep["connected"]


def test_planar_connect_and_lift(tmp_path, capsys):
    z = fl.random_planar_frame(4, np.random.default_rng(1))
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.from_planar(z.z)))
    code, out, _ = run(capsys, "planar-connect", fpath)
    assert code == 0
    path = jsonio.path_from_dict(json.loads(out))
    assert fl.validate_path(path, 1e-6, expect_start=z.z,
                            expect_end=fl.canonical_planar(4).z).ok
    cp = fl.chain_straighten(fl.square_map(z))
    cpath = write(tmp_path, "cp.json", jsonio.path_to_dict(cp))
    code, out, _ = run(capsys, "lift", cpath, fpath)
    assert code == 0
    lifted = jsonio.path_from_dict(json.loads(out))
    assert np.max(np.abs(lifted.start - z.z)) < 1e-12


def test_holonomy_subcommand(tmp_path, capsys):
    loop = fl.to_gram_loop(fl.case1_explicit_path())
    lpath = write(tmp_path, "loop.json", jsonio.loop_to_dict(loop))
    code, out, _ = run(capsys, "holonomy", lpath)
    assert code == 0 and json.loads(out) == {"sign": -1}


def test_holonomy_tol_reaches_every_check(tmp_path, capsys):
    """A loop closed within 1e-2 only: `--tol 1e-2` reaches every check on
    its closing step and accepts it; the default tol refuses it as open."""
    e = np.exp(5e-3j)
    loop = fl.to_gram_loop(fl.case1_explicit_path())
    loop.append(fl.gram(fl.from_planar(np.array([e, 1j * e, 1, 1j]))))
    lpath = write(tmp_path, "loop.json", jsonio.loop_to_dict(loop))
    code, out, _ = run(capsys, "holonomy", lpath, "--tol", "1e-2")
    assert code == 0 and json.loads(out) == {"sign": -1}
    _one_line_error(*run(capsys, "holonomy", lpath))


def test_holonomy_refuses_a_tol_no_margin_can_pass(tmp_path, capsys):
    """Every Procrustes margin is at most 1, so --tol >= 1 is refused up
    front with one line."""
    loop = fl.to_gram_loop(fl.case1_explicit_path())
    lpath = write(tmp_path, "loop.json", jsonio.loop_to_dict(loop))
    for tol in ("1", "2.5"):
        code, out, err = run(capsys, "holonomy", lpath, "--tol", tol)
        _one_line_error(code, out, err)
        assert f"tol {float(tol):g} >= 1 refuses every step" in err


def test_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "verify", str(p))
    assert code == 2 and "framelab:" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    code, out, err = run(capsys, "enumerate-1red", "--n", "0")
    _one_line_error(code, out, err)
    assert err == "framelab: need n >= 1\n"


_ONES2 = '{"field":"R","n":1,"k":2,"entries":[[1,1],[1,1]]}'
_ONES3 = '{"field":"R","n":1,"k":3,"entries":[[1,1,1],[1,1,1],[1,1,1]]}'
_ONES2_C = '{"field":"C","n":1,"k":2,"entries":[[[1,0],[1,0]],[[1,0],[1,0]]]}'
_BIGON = '{"id":"F","walk":[{"edge":"x","dir":1},{"edge":"x","dir":-1}]}'


def _complex_doc(vertices='["a","b","c"]', edges='[{"id":"x","ends":["a","b"]}]', faces="[]"):
    return f'{{"vertices":{vertices},"edges":{edges},"faces":{faces}}}'


#: documents whose entries disagree with their declared n or k -> (the
#: command that reads that kind of document, its refusal)
_MISDECLARED = {
    '{"field":"R","n":2,"k":2,"entries":[[1,1]]}':
        ("gram", "frame entries do not match the declared n, k"),
    '{"field":"R","n":1,"k":3,"entries":[[1,1],[1,1]]}':
        ("complement", "gram entries do not match the declared k"),
}

#: complex documents with a repeated label or id, or vertices or edge ends not in a list
_BAD_COMPLEXES = {
    "edge id 'x' is listed twice":
        _complex_doc(edges='[{"id":"x","ends":["a","b"]},{"id":"x","ends":["b","c"]}]'),
    "vertex label 'a' is listed twice": _complex_doc(vertices='["a","b","a"]'),
    "face id 'F' is listed twice": _complex_doc(faces=f"[{_BIGON},{_BIGON}]"),
    "edge 'x' needs a list of two ends": _complex_doc(edges='[{"id":"x","ends":["a","b","c"]}]'),
    "edge 'y' needs a list of two ends": _complex_doc(edges='[{"id":"y","ends":"ab"}]'),
    "vertices must be a list of labels": _complex_doc(vertices='"abc"'),
}


@pytest.mark.parametrize("cmd", ["gram", "complement", "tangent", "holonomy",
                                 "surface-report"])
@pytest.mark.parametrize("doc", ['[1,2]', 'null',
                                 '{"field":"C","n":1,"k":2,"entries":[[1,2]]}',
                                 '{"field":"R","n":null,"k":2,"entries":[[1,2]]}',
                                 f'{{"points":[{_ONES2_C},{_ONES2_C}]}}',
                                 f'{{"points":[{_ONES2},{_ONES3},{_ONES2}]}}',
                                 *_MISDECLARED, *_BAD_COMPLEXES.values()])
def test_malformed_document_exits_2(capsys, monkeypatch, cmd, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, cmd, "-")
    assert code == 2 and out == ""
    assert err.startswith("framelab: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    reader, message = _MISDECLARED.get(doc, (None, None))
    assert cmd != reader or err == f"framelab: {message}\n"


def test_oversized_request_exits_2(capsys):
    """A request the machine cannot hold is refused like malformed input.
    --n 40 --points asks for one 2^40 x 41 x 41 float64 stack, 2^40 * 41^2
    * 8 B = 13.1 PiB: above the 128 TiB user address space, so the
    allocation is refused under any overcommit setting and nothing is
    filled."""
    code, out, err = run(capsys, "enumerate-1red", "--n", "40", "--points")
    _one_line_error(code, out, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", ["verify", "complement"])
def test_deeply_nested_document_exits_2(tmp_path, capsys, monkeypatch, cmd):
    """The decoder's recursion limit is malformed input, not a crash; once
    from a file and once from stdin."""
    doc = "[" * 100000 + "]" * 100000
    path = tmp_path / "deep.json"
    path.write_text(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    for source in (str(path), "-"):
        code, out, err = run(capsys, cmd, source)
        _one_line_error(code, out, err)
        assert "nested too deeply" in err and "Traceback" not in err


def test_overflowing_input_exits_2_with_one_line(tmp_path):
    """Finite entries of 1e308 overflow the first product: numpy's warning
    is the one stderr line of the refusal, not a line ahead of another one
    (verify used to add "invalid bounds (nan, nan)").  The commands run in
    a fresh interpreter, whose warnings reach stderr as on the command line."""
    frame = {"field": "R", "n": 2, "k": 3, "entries": [[1e308] * 3] * 2}
    gram = {"field": "R", "n": 1, "k": 3, "entries": [[1e308] * 3] * 3}
    frame, gram = write(tmp_path, "f.json", frame), write(tmp_path, "g.json", gram)
    loop = write(tmp_path, "loop.json", {"points": [json.loads(Path(gram).read_text())] * 2})
    runs = [["complement", gram], ["tangent", gram], ["frame-from-gram", gram],
            ["holonomy", loop], ["verify", frame], ["gram", frame]]
    code = ("import contextlib, io, json\n"
            "from framelab import cli\n"
            "seen = []\n"
            f"for argv in {runs!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        seen.append([cli.main(argv), out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(seen))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr[-2000:]
    for argv, (code, out, err) in zip(runs, json.loads(proc.stdout)):
        _one_line_error(code, out, err)
        assert err.startswith("framelab: overflow encountered in "), (argv, err)


@pytest.mark.parametrize("message,doc", _BAD_COMPLEXES.items())
def test_complex_document_refusal_names_the_fault(capsys, monkeypatch, message, doc):
    """A repeat is refused, not silently merged, and ends or vertices that
    are not lists are not read as characters; the one stderr line names the
    fault.  The base document the cases vary decodes."""
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "surface-report", "-")
    assert (code, out) == (2, "") and err.startswith(f"framelab: {message}")
    monkeypatch.setattr("sys.stdin", io.StringIO(_complex_doc(faces=f"[{_BIGON}]")))
    code, out, _ = run(capsys, "surface-report", "-")
    assert code == 0 and json.loads(out)["closed_surface"] is False


@pytest.mark.parametrize("value", [True, 1.0, "1"])
def test_walk_dir_refusal_is_pinned(value):
    """A walk step's dir that is no JSON integer is refused by name, and it
    is the first fault in walk order that is named."""
    doc = _replaced(_TORUS, ("faces", 0, "walk", 1, "dir"), value)
    with pytest.raises(ValueError) as exc:
        jsonio.complex_from_dict(doc)
    assert str(exc.value) == f"'dir' must be a JSON integer, got {value!r}"
    del doc["faces"][0]["walk"][3]["dir"]
    with pytest.raises(ValueError, match="^'dir' must be a JSON integer"):
        jsonio.complex_from_dict(doc)


@pytest.mark.parametrize("entries", [[[1, 2]], [[[1, 2, 3, 4]]], [[[1, 2], [3]]]])
def test_complex_entries_must_be_pairs(entries):
    with pytest.raises(ValueError):
        jsonio.frame_from_dict({"field": "C", "n": 1, "k": 1, "entries": entries})


def test_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMELAB_TOL", "0.5")
    F = fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float))
    path = write(tmp_path, "f.json", jsonio.frame_to_dict(F))
    code, out, _ = run(capsys, "verify", path)
    # bounds (1,2) pass the absurdly loose relative tolerance
    assert code == 0 and json.loads(out)["tight"]


@pytest.mark.parametrize("inherited, seen", [(None, "1"), ("3", "3")])
def test_command_pins_blas_threads_unless_set(capsys, monkeypatch, inherited, seen):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")  # the teardown restores the caller's value
    if inherited is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
    monkeypatch.setattr(sys, "argv", ["framelab", "dims", "--k", "4", "--n", "2"])
    with pytest.raises(SystemExit) as exit:
        cli.main_entry()
    assert exit.value.code == 0 and "dimG" in json.loads(capsys.readouterr().out)
    assert os.environ["OPENBLAS_NUM_THREADS"] == seen


def test_json_round_trip_exact(tmp_path, capsys):
    F = fl.harmonic_frame(5, 2, "C")
    doc = jsonio.frame_to_dict(F)
    back = jsonio.frame_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(back.entries, F.entries)


def _per_element_path_to_dict(p):
    """The per-element path encoder that the array codec replaced."""
    return {"kind": p.kind, "k": p.k, "max_step": p.max_step,
            "samples": [{"t": float(t), "z": [[float(z.real), float(z.imag)] for z in pt]}
                        for t, pt in zip(p.ts, p.points)]}


def test_path_json_matches_per_element_codec():
    z = fl.random_planar_frame(9, np.random.default_rng(5))
    for path in (fl.connect_to_standard(z), fl.chain_straighten(fl.square_map(z))):
        for sep in (None, (",", ":")):
            text = json.dumps(jsonio.path_to_dict(path), separators=sep)
            assert text == json.dumps(_per_element_path_to_dict(path), separators=sep)
        back = jsonio.path_from_dict(json.loads(text))
        assert back.kind == path.kind and back.max_step == path.max_step
        assert back.ts.tobytes() == path.ts.tobytes()
        assert back.points.tobytes() == path.points.tobytes()
    doc = jsonio.path_to_dict(path)
    doc["k"] += 1
    with pytest.raises(ValueError, match="declared k"):
        jsonio.path_from_dict(doc)


def _per_element_matrix_out(M, field):
    """The per-element matrix encoder that the array form replaced."""
    def num(x):
        if field == "C":
            return [float(np.real(x)), float(np.imag(x))]
        return float(np.real(x))
    return [[num(x) for x in row] for row in np.asarray(M)]


def test_matrix_json_matches_per_element_codec():
    frames = [fl.harmonic_frame(7, 3, "R"), fl.harmonic_frame(7, 3, "C"), fl.simplex_frame(4),
              fl.random_tight_frame(9, 4, "C", np.random.default_rng(7), spread=0.3)]
    for F in frames:
        R = fl.gram(F)
        for doc, M, field in ((jsonio.frame_to_dict(F), F.entries, F.field),
                              (jsonio.gram_to_dict(R), R.entries, R.field)):
            reference = {**doc, "entries": _per_element_matrix_out(M, field)}
            assert json.dumps(doc) == json.dumps(reference)


def _one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("framelab: ") and len(err.splitlines()) == 1


def test_lift_rejects_nan_sample(tmp_path, capsys):
    z = fl.random_planar_frame(5, np.random.default_rng(6))
    doc = jsonio.path_to_dict(fl.chain_straighten(fl.square_map(z)))
    doc["samples"][3]["z"][1][0] = float("nan")
    cpath = write(tmp_path, "cp.json", doc)
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.from_planar(z.z)))
    _one_line_error(*run(capsys, "lift", cpath, fpath))


#: relative errors of the coordinates: a modulus error in all of them, or
#: z_1 turned by 1e-9, which leaves |sum z^2| = 2e-9 > tol but within
#: tol * lambda_max, where verify's is_tight passes it too
@pytest.mark.parametrize("err,tol", [(1e-11, None), (1e-7, "1e-6"),
                                     pytest.param(np.r_[1e-9j, np.zeros(5)], None, id="turned")])
def test_planar_connect_takes_what_verify_passes(tmp_path, capsys, err, tol):
    z = fl.random_planar_frame(6, np.random.default_rng(8)).z * (1 + err)
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.from_planar(z)))
    flags = ["--tol", tol] if tol else []
    tol = float(tol or fl.DEFAULT_TOL)
    code, out, _ = run(capsys, "verify", fpath, *flags)
    assert code == 0 and json.loads(out)["pass"]
    code, out, err_text = run(capsys, "planar-connect", fpath, *flags)
    assert code == 0 and err_text == ""
    path = jsonio.path_from_dict(json.loads(out))
    assert fl.validate_path(path, tol, expect_start=z, expect_end=fl.canonical_planar(6).z).ok
    cp = fl.chain_straighten(fl.square_map(fl.PlanarFrame(z, tol)))
    code, out, err_text = run(capsys, "lift", write(tmp_path, "cp.json", jsonio.path_to_dict(cp)),
                              fpath, *flags)
    assert code == 0 and err_text == ""
    assert np.array_equal(jsonio.path_from_dict(json.loads(out)).start, z)


@pytest.mark.parametrize("step", ["0", "-0.05", "nan", "inf"])
def test_bad_max_step_exits_2(tmp_path, capsys, step):
    z = fl.random_planar_frame(6, np.random.default_rng(9))
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.from_planar(z.z)))
    _one_line_error(*run(capsys, "planar-connect", fpath, "--max-step", step))


def test_coarse_max_step_connects(tmp_path, capsys):
    z = fl.random_planar_frame(6, np.random.default_rng(9))
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.from_planar(z.z)))
    code, out, err = run(capsys, "planar-connect", fpath, "--max-step", "2")
    assert code == 0 and err == ""
    path = jsonio.path_from_dict(json.loads(out))
    assert path.max_step == 2.0
    assert fl.validate_path(path, expect_start=z.z, expect_end=fl.canonical_planar(6).z).ok


def test_underflowing_frame_exits_2(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", {"field": "R", "n": 2, "k": 3,
                                       "entries": [[1e-200] * 3] * 2})
    code, out, err = run(capsys, "verify", fpath)
    _one_line_error(code, out, err)
    assert err == ("framelab: frame_bounds requires a nonzero frame operator with finite "
                   "eigenvalues, got 0\n")


@pytest.mark.parametrize("axes", ["1,nan", "nan,1", "inf,1"])
def test_non_finite_axes_exit_2(tmp_path, capsys, axes):
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.simplex_frame(2)))
    _one_line_error(*run(capsys, "verify", fpath, "--axes", axes))


def test_gram_input_is_checked(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"field": "R", "n": 1, "k": 3,
                                       "entries": np.diag([5.0, 7.0, 1.0]).tolist()})
    for cmd in ("complement", "frame-from-gram", "tangent"):
        code, out, err = run(capsys, cmd, bad)
        _one_line_error(code, out, err)
        assert "unit_diagonal" in err and "idempotent" in err and "self_adjoint" not in err
    code, out, _ = run(capsys, "partition", bad)  # defined for any square matrix
    assert code == 0 and json.loads(out)["blocks"] == [[1], [2], [3]]
    # --tol reaches the check: a 1e-7 relative error passes at 1e-6 only
    R = fl.gram(fl.simplex_frame(2))
    near = write(tmp_path, "near.json", jsonio.gram_to_dict(
        fl.GramPoint("R", R.n, R.entries * (1 + 1e-7))))
    for cmd in ("complement", "frame-from-gram", "tangent"):
        _one_line_error(*run(capsys, cmd, near))
        code, out, err = run(capsys, cmd, near, "--tol", "1e-6")
        assert code == 0 and err == ""


@pytest.mark.parametrize("value", ["abc", "", "nan", "0", "-1"])
def test_malformed_env_tolerance_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("FRAMELAB_TOL", value)
    _one_line_error(*run(capsys, "simplex", "--n", "3"))


def _seed_documents():
    """One valid document of each input kind, small enough to run fast."""
    z4 = fl.random_planar_frame(4, np.random.default_rng(10))
    return {
        "frame": jsonio.frame_to_dict(fl.simplex_frame(2)),
        "planar": jsonio.frame_to_dict(fl.from_planar(z4.z)),
        "gram": jsonio.gram_to_dict(fl.gram(fl.simplex_frame(2))),
        "loop": jsonio.loop_to_dict(fl.to_gram_loop(fl.case1_explicit_path(0.1))),
        "chainpath": jsonio.path_to_dict(fl.chain_straighten(fl.square_map(z4), 0.5)),
        "complex": jsonio.complex_to_dict(fl.build_g42()),
    }


_SEEDS = _seed_documents()

#: subcommand -> the seed kind of each document argument
_DOC_ARGS = {
    "verify": ("frame",), "gram": ("frame",), "complement": ("gram",),
    "frame-from-gram": ("gram",), "partition": ("gram",), "tangent": ("gram",),
    "planar-connect": ("planar",), "lift": ("chainpath", "planar"),
    "holonomy": ("loop",), "surface-report": ("complex",),
    "simplex": (), "harmonic": (), "dims": (), "regular-point": (),
    "enumerate-1red": (), "complex": (),
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats() | st.sampled_from([10 ** 400, -1e308]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=4),
    max_leaves=10)


def _mutated(data, doc):
    """doc unchanged, or with one value replaced or one key dropped, anywhere."""
    action = data.draw(st.sampled_from(["keep", "replace", "descend"]))
    if action == "descend" and isinstance(doc, (dict, list)) and doc:
        key = data.draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                        else range(len(doc))))
        doc = copy.copy(doc)
        if isinstance(doc, dict) and data.draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = _mutated(data, doc[key])
        return doc
    return doc if action == "keep" else data.draw(_JSON)


def _fuzz_argv(data, cmd, tmpdir):
    argv = [cmd]
    for i, kind in enumerate(_DOC_ARGS[cmd]):
        doc = _mutated(data, _SEEDS[kind]) if data.draw(st.integers(0, 3)) else data.draw(_JSON)
        text = json.dumps(doc) if data.draw(st.integers(0, 9)) else "{not json"
        path = os.path.join(tmpdir, f"doc{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv.append(path)
    small = st.integers(-2, 7).map(str)
    step = st.sampled_from(["0.05", "0.3"]) | st.floats(0.02, 2.0).map(repr)
    flags = {
        "simplex": [("--n", small)], "enumerate-1red": [("--n", small)],
        "harmonic": [("--k", small), ("--n", small), ("--field", st.sampled_from("RC"))],
        "dims": [("--k", small), ("--n", small), ("--field", st.sampled_from("RC"))],
        "regular-point": [("--k", small), ("--n", small)],
        "complex": [(None, st.sampled_from(["g42", "g52"]))],
        "verify": [("--axes", st.sampled_from(["1,1", "2,1", "1", "a,b", ""]))],
        "planar-connect": [("--max-step", step)],
    }.get(cmd, [])
    for flag, values in flags:
        if flag is None:
            argv.append(data.draw(values))
        elif flag in ("--n", "--k") or data.draw(st.booleans()):
            argv += [flag, data.draw(values)]
    if _DOC_ARGS[cmd] and data.draw(st.booleans()):
        argv += ["--tol", data.draw(st.sampled_from(["1e-9", "1e-6", "0", "-1", "nan"]))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cli_fuzz_exit_codes(data):
    """Any document and flags: exit 0, 1 (verify only) or 2 with one
    stderr line, and never a traceback."""
    cmd = data.draw(st.sampled_from(sorted(_DOC_ARGS)))
    with tempfile.TemporaryDirectory() as tmpdir:
        argv = _fuzz_argv(data, cmd, tmpdir)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, usage = cli.main(argv), False
            except SystemExit as exc:  # argparse's usage errors
                code, usage = exc.code, True
                assert code == 2, argv
    err = err.getvalue()
    assert "Traceback" not in err, argv
    assert code in (0, 1, 2), (argv, code)
    assert code != 1 or cmd == "verify", (argv, err)
    if code == 2 and not usage:
        assert err.startswith("framelab: ") and len(err.splitlines()) == 1, (argv, err)


def _commands_taking(flag):
    return [name for name, (_, *specs) in cli.COMMANDS.items()
            if any(spec_flag == flag for spec_flag, _ in specs)]


@pytest.mark.parametrize("cmd", _commands_taking("--tol"))
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "abc"])
def test_malformed_tol_exits_2(tmp_path, capsys, cmd, tol):
    paths = [write(tmp_path, f"doc{i}.json", _SEEDS[kind])
             for i, kind in enumerate(_DOC_ARGS[cmd])]
    code, out, err = run(capsys, cmd, *paths, "--tol", tol)
    _one_line_error(code, out, err)
    assert "--tol" in err and "Traceback" not in err


def _replaced(doc, path, value):
    """A copy of doc with the value at path (a sequence of keys) replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


_TORUS = {"vertices": ["v"],
          "edges": [{"id": "A", "ends": ["v", "v"]}, {"id": "B", "ends": ["v", "v"]}],
          "faces": [{"id": "F", "walk": [{"edge": "A", "dir": 1}, {"edge": "B", "dir": 1},
                                         {"edge": "A", "dir": -1}, {"edge": "B", "dir": -1}]}]}

#: every decoder that reads an integer field: (decoder, valid doc, path to the field)
_INTEGER_FIELDS = [
    (jsonio.frame_from_dict, _SEEDS["frame"], ("n",)),
    (jsonio.frame_from_dict, _SEEDS["frame"], ("k",)),
    (jsonio.gram_from_dict, _SEEDS["gram"], ("n",)),
    (jsonio.gram_from_dict, _SEEDS["gram"], ("k",)),
    (jsonio.loop_from_dict, _SEEDS["loop"], ("points", 1, "n")),
    (jsonio.partition_from_dict, {"k": 3, "blocks": [[1, 3], [2]]}, ("k",)),
    (jsonio.path_from_dict, _SEEDS["chainpath"], ("k",)),
    (jsonio.complex_from_dict, _TORUS, ("faces", 0, "walk", 2, "dir")),
]


@pytest.mark.parametrize("decode,doc,path", _INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.9, -1.2, 3.0, "3", "-1", True, None])
def test_integer_fields_take_json_integers_only(decode, doc, path, value):
    decode(doc)
    with pytest.raises(ValueError, match=f"{path[-1]!r} must be a JSON integer"):
        decode(_replaced(doc, path, value))


#: decoder fields that must be JSON numbers or JSON integers, with no
#: bool or string standing in: (decoder, valid doc, path to the field, kind)
_TYPED_FIELDS = [
    (jsonio.path_from_dict, _SEEDS["chainpath"], ("max_step",), "number"),
    (jsonio.path_from_dict, _SEEDS["chainpath"], ("samples", 0, "t"), "number"),
    (jsonio.partition_from_dict, {"k": 2, "blocks": [[1, 2]]}, ("blocks", 0, 0), "integer"),
    (jsonio.partition_from_dict, {"k": 2, "blocks": [[1, 2]]}, ("blocks", 0, 1), "integer"),
]


@pytest.mark.parametrize("decode,doc,path,kind", _TYPED_FIELDS)
@pytest.mark.parametrize("value", ["0", "0.5", "", True, False, None, [0.5]])
def test_number_fields_take_json_numbers_only(decode, doc, path, kind, value):
    decode(doc)
    with pytest.raises(ValueError, match=f"must be a JSON {kind}"):
        decode(_replaced(doc, path, value))
    if kind == "integer":
        for value in (1.9, 2.0):
            with pytest.raises(ValueError, match="must be a JSON integer"):
                decode(_replaced(doc, path, value))


@pytest.mark.parametrize("path,value", [(("max_step",), "0.5"), (("max_step",), True),
                                        (("samples", 0, "t"), "0"),
                                        (("samples", 0, "t"), False)])
def test_lift_refuses_non_number_fields(tmp_path, capsys, path, value):
    z4 = fl.random_planar_frame(4, np.random.default_rng(10))
    fpath = write(tmp_path, "f.json", jsonio.frame_to_dict(fl.from_planar(z4.z)))
    assert run(capsys, "lift", write(tmp_path, "cp.json", _SEEDS["chainpath"]), fpath)[0] == 0
    cpath = write(tmp_path, "bad.json", _replaced(_SEEDS["chainpath"], path, value))
    code, out, err = run(capsys, "lift", cpath, fpath)
    _one_line_error(code, out, err)
    assert "must be a JSON number" in err


def test_path_without_max_step_is_malformed():
    """A path's max_step is the bound its steps are checked to, so a document
    without one is refused rather than read with a looser bound."""
    z = fl.random_planar_frame(9, np.random.default_rng(0))
    doc = jsonio.path_to_dict(fl.chain_straighten(fl.square_map(z)))
    assert jsonio.path_from_dict(doc).max_step == doc["max_step"] == 0.05
    del doc["max_step"]
    with pytest.raises(ValueError, match="malformed JSON document.*'max_step'"):
        jsonio.path_from_dict(doc)


def test_lift_refuses_a_path_without_max_step(tmp_path, capsys):
    fpath = write(tmp_path, "f.json", _SEEDS["planar"])
    doc = copy.deepcopy(_SEEDS["chainpath"])
    assert run(capsys, "lift", write(tmp_path, "cp.json", doc), fpath)[0] == 0
    del doc["max_step"]
    code, out, err = run(capsys, "lift", write(tmp_path, "bad.json", doc), fpath)
    _one_line_error(code, out, err)
    assert "'max_step'" in err


@pytest.mark.parametrize("cmd,kinds,path", [
    ("verify", ("frame",), ("entries", 0, 1)),
    ("complement", ("gram",), ("entries", 0, 1)),
    ("holonomy", ("loop",), ("points", 1, "entries", 0, 1)),
    ("lift", ("chainpath", "planar"), ("samples", 1, "z", 0, 0)),
])
@pytest.mark.parametrize("value", ["1", True, None])
def test_matrix_entries_take_json_numbers_only(tmp_path, capsys, cmd, kinds, path, value):
    """A string, bool or null matrix entry is refused, not read as a number."""
    docs = [_SEEDS[kind] for kind in kinds]
    paths = [write(tmp_path, f"{kind}.json", doc) for kind, doc in zip(kinds, docs)]
    assert run(capsys, cmd, *paths)[0] == 0
    paths[0] = write(tmp_path, "bad.json", _replaced(docs[0], path, value))
    code, out, err = run(capsys, cmd, *paths)
    _one_line_error(code, out, err)
    assert f"matrix entry must be a JSON number, got {value!r}" in err


def _stdin(monkeypatch, doc):
    """'-', with doc as JSON on stdin."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    return "-"


@pytest.mark.parametrize("cmd,doc,changes", [
    ("verify", _SEEDS["frame"], {("n",): 2.9, ("k",): "3"}),
    ("complement", _SEEDS["gram"], {("n",): 2.5}),
    ("surface-report", _TORUS, {("faces", 0, "walk", 0, "dir"): 1.7,
                                ("faces", 0, "walk", 2, "dir"): -1.2,
                                ("faces", 0, "walk", 3, "dir"): "-1"}),
])
def test_non_integer_fields_exit_2(capsys, monkeypatch, cmd, doc, changes):
    assert run(capsys, cmd, _stdin(monkeypatch, doc))[0] == 0
    for path, value in changes.items():
        doc = _replaced(doc, path, value)
    code, out, err = run(capsys, cmd, _stdin(monkeypatch, doc))
    _one_line_error(code, out, err)
    assert "must be a JSON integer" in err and "Traceback" not in err


_TOL = ("--tol", 1e-9, False, None)
_K = ("--k", None, True, None)
_N = ("--n", None, True, None)
_FIELD = ("--field", "R", False, ("R", "C"))

#: every subcommand's arguments in order: (positional name or option string,
#: default, required, choices), with FRAMELAB_TOL unset
_SURFACE = {
    "verify": [("frame", None, True, None), ("--axes", None, False, None), _TOL],
    "gram": [("input", None, True, None), _TOL],
    "complement": [("input", None, True, None), _TOL],
    "frame-from-gram": [("input", None, True, None), _TOL],
    "partition": [("input", None, True, None), _TOL],
    "tangent": [("input", None, True, None), _TOL],
    "simplex": [_N],
    "harmonic": [_K, _N, _FIELD],
    "dims": [_K, _N, _FIELD],
    "regular-point": [_K, _N],
    "enumerate-1red": [_N, ("--points", False, False, None)],
    "planar-connect": [("frame", None, True, None), ("--max-step", 0.05, False, None), _TOL],
    "lift": [("chainpath", None, True, None), ("start", None, True, None), _TOL],
    "holonomy": [("loop", None, True, None), _TOL],
    "complex": [("which", None, True, ("g42", "g52"))],
    "surface-report": [("input", None, True, None)],
}


def test_subcommand_surface(monkeypatch):
    monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: [(a.option_strings[0] if a.option_strings else a.dest, a.default,
                   a.required, a.choices and tuple(a.choices))
                  for a in p._actions if not isinstance(a, argparse._HelpAction)]
           for name, p in sub.choices.items()}
    assert list(got.items()) == list(_SURFACE.items())


#: the flags of a valid run of each subcommand that takes no document
_VALID_FLAGS = {"simplex": ("--n", "3"), "harmonic": ("--k", "5", "--n", "2", "--field", "C"),
                "dims": ("--k", "5", "--n", "2"), "regular-point": ("--k", "6", "--n", "3"),
                "enumerate-1red": ("--n", "3", "--points"), "complex": ("g42",)}


@pytest.mark.parametrize("cmd", cli.COMMANDS)
def test_every_subcommand_prints_one_compact_json_line(tmp_path, capsys, cmd):
    """On a valid input every subcommand exits 0 and prints its document as
    one line of compact JSON, keys in the order the document holds them."""
    paths = [write(tmp_path, f"doc{i}.json", _SEEDS[kind])
             for i, kind in enumerate(_DOC_ARGS[cmd])]
    code, out, err = run(capsys, cmd, *paths, *_VALID_FLAGS.get(cmd, ()))
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv", [("holonomy", "loop.json", "--max-step", "1"),
                                  ("dims", "--k", "5", "--n", "2", "--format", "text"),
                                  ("complex", "g52", "--export", "p")])
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert exit.value.code == 2 and out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_one_subcommand_parser_prints_as_the_full_one(monkeypatch):
    """A run builds only the subcommand it names; its help, and the usage
    line of the top parser, read as with every subcommand built."""
    monkeypatch.delenv("FRAMELAB_TOL", raising=False)
    full = cli._build_parser()
    subs = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    for name in cli.COMMANDS:
        one = cli._build_parser(name)
        sub = next(a for a in one._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == [name]
        assert one.format_usage() == full.format_usage()
        assert sub.choices[name].format_help() == subs.choices[name].format_help()


def _closed_reader_run(*argv):
    """Run ``python -m framelab.cli argv`` with stdout on a pipe whose reader
    has already closed; returns (exit code, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "framelab.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [("complex", "g52"), ("simplex", "--n", "3")])
def test_closed_reader_is_not_an_error(argv):
    """A large write (complex) and a small one flushed at the end (simplex)
    both meet the closed pipe: no stderr line, exit 0."""
    assert _closed_reader_run(*argv) == (0, "")


def test_closed_reader_keeps_the_verdict(tmp_path):
    F = fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float))
    path = write(tmp_path, "f.json", jsonio.frame_to_dict(F))
    assert _closed_reader_run("verify", path) == (1, "")
