"""The names the package exports, and what importing it and running the
topology subcommands load."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framelab as fl
from framelab import jsonio

ROOT = Path(__file__).resolve().parents[1]

#: the exported names, by the module that defines them
EXPORTS = {
    "closedform": ["expected_dimensions"],
    "frames": ["DEFAULT_TOL", "EllipsoidSpec", "Frame", "FrameBounds", "act_orthogonal",
               "act_permutation", "act_phases", "expected_tight_bound", "frame_bounds",
               "frame_operator", "is_on_ellipsoid", "is_spherical", "is_tight",
               "permutation_matrix", "simplex_frame"],
    "grassmann": ["GramCheck", "GramPoint", "OneRedundantEnumeration", "OrbitWitness",
                  "complement", "enumerate_one_redundant", "frame_from_gram", "gram",
                  "holonomy_sign", "is_gram_point", "lift_gram_path", "nearest_gram_point",
                  "refine_loop", "same_orbit", "torus_point"],
    "stratification": ["Partition", "TangentReport", "check_block_cardinalities",
                       "commutant_partition", "construct_regular_point", "harmonic_frame",
                       "is_orthodecomposable", "random_tight_frame", "tangent_report"],
    "planar": ["Chain", "FramePath", "PlanarFrame", "canonical_planar", "case1_explicit_path",
               "case3_explicit_path", "chain_straighten", "connect_to_standard", "from_planar",
               "lift_path", "random_planar_frame", "square_map", "standard_chain",
               "to_gram_loop", "to_planar", "validate_path"],
    "cellcomplex": ["Complex2", "SurfaceReport", "build_g42", "build_g52",
                    "connected_components", "surface_report"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


#: parameter names of functions that take no option they could read from their
#: inputs, of the Gram lift, whose steps tol and max_step decide alone, and of
#: the Gram-point recovery and loop functions, so that none gains an option
SIGNATURES = {
    "square_map": ["pf"],
    "lift_path": ["cp", "start"],
    "connect_to_standard": ["z", "max_step"],
    "nearest_gram_point": ["M", "n"],
    "lift_gram_path": ["path", "tol", "max_step"],
    "holonomy_sign": ["loop", "tol", "max_step"],
    "refine_loop": ["loop", "rounds"],
    "frame_from_gram": ["R"],
    "tangent_report": ["R", "tol"],
    "to_gram_loop": ["path", "tol"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signatures_take_no_derivable_option(name):
    assert list(inspect.signature(getattr(fl, name)).parameters) == SIGNATURES[name]


def _fresh_python(code: str) -> dict:
    """Run code in a new interpreter that imports this checkout's framelab;
    returns the JSON document it prints last."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_star_import_yields_the_exported_names():
    assert len(NAMES) == len(set(NAMES)) == 62
    namespace = {}
    exec("from framelab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert sorted(fl.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(fl))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exported_names_are_the_modules_objects(module):
    mod = importlib.import_module(f"framelab.{module}")
    for name in EXPORTS[module]:
        assert getattr(fl, name) is getattr(mod, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fl.no_such_name  # noqa: B018
    assert not hasattr(fl, "_components")
    assert fl.planar is importlib.import_module("framelab.planar")


def test_bare_import_loads_no_submodule():
    doc = _fresh_python(
        "import json, sys, framelab\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith(('framelab.', 'numpy')))))")
    assert doc == []


def test_topology_stages_run_without_numpy():
    """complex g52 | surface-report - through cli.main never loads numpy,
    nor dataclasses and the inspect module it pulls in."""
    doc = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from framelab import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    built = cli.main(['complex', 'g52'])\n"
        "sys.stdin, report = io.StringIO(out.getvalue()), io.StringIO()\n"
        "with contextlib.redirect_stdout(report):\n"
        "    checked = cli.main(['surface-report', '-'])\n"
        "print(json.dumps({'codes': [built, checked], 'report': json.loads(report.getvalue()),\n"
        "                  'loaded': [m for m in ('numpy', 'dataclasses', 'inspect')\n"
        "                             if m in sys.modules]}))")
    assert doc["codes"] == [0, 0]
    assert (doc["report"]["v"], doc["report"]["e"], doc["report"]["f"]) == (96, 160, 16)
    assert doc["loaded"] == []


def test_closed_form_stages_run_without_numpy():
    """dims, simplex and enumerate-1red without --points print closed forms
    through cli.main and load none of numpy, dataclasses or inspect;
    --points still loads numpy and prints the Gram stack."""
    doc = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from framelab import cli\n"
        "def run(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(list(argv))\n"
        "    return [code, json.loads(out.getvalue())]\n"
        "runs = [run('dims', '--k', '6', '--n', '3', '--field', 'C'),\n"
        "        run('simplex', '--n', '3'), run('enumerate-1red', '--n', '5')]\n"
        "loaded = [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]\n"
        "runs.append(run('enumerate-1red', '--n', '3', '--points'))\n"
        "print(json.dumps({'runs': runs, 'loaded': loaded}))")
    dims, simplex, counts, points = doc["runs"]
    assert dims == [0, {"dimG": 13, "dimF": 22, "dimN": 13, "dimM": 22}]
    assert simplex[0] == 0 and (simplex[1]["n"], simplex[1]["k"]) == (3, 4)
    assert counts == [0, {"count": 32, "permutation_orbits": 4, "sign_orbits": 1}]
    assert doc["loaded"] == []
    assert points[0] == 0 and len(points[1]["points"]) == 8
    assert points[1]["points"][7]["entries"][0] == [1.0, -1.0, -1.0, -1.0]


def test_numpy_stages_load_no_dataclasses(tmp_path):
    """regular-point | tangent, frame-from-gram and planar-connect through
    cli.main build every value on defaults._Record and never load dataclasses."""
    z = fl.random_planar_frame(5, np.random.default_rng(1))
    frame = str(tmp_path / "f.json")
    Path(frame).write_text(json.dumps(jsonio.frame_to_dict(fl.from_planar(z.z))))
    doc = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from framelab import cli\n"
        "def run(argv, stdin=''):\n"
        "    sys.stdin, out = io.StringIO(stdin), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main(argv)\n"
        "    return code, out.getvalue()\n"
        "point, gram = run(['regular-point', '--k', '6', '--n', '3']), run(['gram', '-'],\n"
        "    run(['simplex', '--n', '2'])[1])\n"
        "runs = [point, run(['tangent', '-'], point[1]), run(['frame-from-gram', '-'], gram[1]),\n"
        f"        run(['planar-connect', {frame!r}])]\n"
        "print(json.dumps({'codes': [code for code, _ in runs],\n"
        "                  'tangent': json.loads(runs[1][1]),\n"
        "                  'loaded': 'dataclasses' in sys.modules}))")
    assert doc["codes"] == [0, 0, 0, 0]
    assert doc["tangent"]["regular"] is True
    assert doc["loaded"] is False


def test_stratification_loads_planar_on_demand():
    """stratification never needs planar: regular-point and tangent stages
    do not load it, nor does random_tight_frame at the shapes n = 2, k - 2
    and k - 1 that the planar parameterization also covers."""
    doc = _fresh_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from framelab import stratification\n"
        "for k, n, field in [(5, 2, 'R'), (6, 4, 'R'), (5, 4, 'R'), (5, 4, 'C')]:\n"
        "    stratification.random_tight_frame(k, n, field, np.random.default_rng(1), 0.05)\n"
        "print(json.dumps('framelab.planar' in sys.modules))")
    assert doc is False


def test_planar_stages_load_grassmann_on_demand(tmp_path):
    """Only to_gram_loop builds Gram points, so planar-connect and lift
    stages neither load nor compile grassmann."""
    z = fl.random_planar_frame(5, np.random.default_rng(1))
    frame, chain = str(tmp_path / "f.json"), str(tmp_path / "cp.json")
    Path(frame).write_text(json.dumps(jsonio.frame_to_dict(fl.from_planar(z.z))))
    Path(chain).write_text(json.dumps(jsonio.path_to_dict(fl.chain_straighten(fl.square_map(z)))))
    doc = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from framelab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(['planar-connect', {frame!r}]),\n"
        f"             cli.main(['lift', {chain!r}, {frame!r}])]\n"
        "print(json.dumps({'codes': codes, 'loaded': 'framelab.grassmann' in sys.modules}))")
    assert doc == {"codes": [0, 0], "loaded": False}
