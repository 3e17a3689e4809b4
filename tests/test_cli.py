import io
import json

import numpy as np
import pytest

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


def test_partition_and_tangent(tmp_path, capsys):
    F = fl.Frame("R", np.array([[1, 0, -1, 0], [0, 1, 0, -1]], dtype=float))
    gpath = write(tmp_path, "g.json", jsonio.gram_to_dict(fl.gram(F)))
    code, out, _ = run(capsys, "partition", gpath)
    assert code == 0 and json.loads(out)["blocks"] == [[1, 3], [2, 4]]
    code, out, _ = run(capsys, "tangent", gpath)
    assert code == 0
    rep = json.loads(out)
    assert rep["rank"] == 2 and not rep["regular"]


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


def test_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "verify", str(p))
    assert code == 2 and "framelab:" in err
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("cmd", ["gram", "complement", "tangent", "holonomy",
                                 "surface-report"])
@pytest.mark.parametrize("doc", ['[1,2]', 'null',
                                 '{"field":"C","n":1,"k":2,"entries":[[1,2]]}',
                                 '{"field":"R","n":null,"k":2,"entries":[[1,2]]}'])
def test_malformed_document_exits_2(capsys, monkeypatch, cmd, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, cmd, "-")
    assert code == 2 and out == ""
    assert err.startswith("framelab: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("entries", [[[1, 2]], [[[1, 2, 3, 4]]], [[[1, 2], [3]]]])
def test_complex_entries_must_be_pairs(entries):
    with pytest.raises(ValueError):
        jsonio.frame_from_dict({"field": "C", "n": 1, "k": 1, "entries": entries})


def test_text_format(capsys):
    code, out, _ = run(capsys, "dims", "--k", "5", "--n", "2", "--field", "C",
                       "--format", "text")
    assert code == 0 and "dimG: 8" in out


def test_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAMELAB_TOL", "0.5")
    F = fl.Frame("R", np.array([[1, 0, 1], [0, 1, 0]], dtype=float))
    path = write(tmp_path, "f.json", jsonio.frame_to_dict(F))
    code, out, _ = run(capsys, "verify", path)
    # bounds (1,2) pass the absurdly loose relative tolerance
    assert code == 0 and json.loads(out)["tight"]


def test_json_round_trip_exact(tmp_path, capsys):
    F = fl.harmonic_frame(5, 2, "C")
    doc = jsonio.frame_to_dict(F)
    back = jsonio.frame_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(back.entries, F.entries)
