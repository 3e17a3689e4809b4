"""Command-line front end.

Subcommands read JSON from file arguments ('-' means stdin), write one line
of compact JSON to stdout, and compose through pipes.  Exit codes: 0
success / verification passed, 1 verification failed, 2 malformed input or
usage error, an input whose arithmetic overflows included (numpy's warning
is then its one stderr line).  The environment variable FRAMELAB_TOL
overrides the default tolerance.  A reader that closes the pipe early is
not an error: the rest of the output is dropped, nothing is printed on
stderr, and the exit code is the command's own.

A handler reaches the library through the lazy ``framelab`` package, so a
subcommand loads only the modules it calls: ``complex`` and
``surface-report`` run without numpy, and so do ``simplex``, ``dims`` and
``enumerate-1red`` without ``--points``, which print closed forms from
`closedform`.  A run builds the arguments of the subcommand it names only.
The ``framelab`` command sets OPENBLAS_NUM_THREADS=1 unless the caller has
set it.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import framelab as fl

from . import closedform, jsonio
from .defaults import DEFAULT_MAX_STEP, DEFAULT_TOL, check_positive


def _frame_in(path: str) -> fl.Frame:
    return jsonio.frame_from_dict(jsonio.read_json(path))


def _gram_in(args) -> fl.GramPoint:
    """The Gram point in ``args.input``, checked against its invariants at --tol."""
    R = jsonio.gram_from_dict(jsonio.read_json(args.input))
    check = fl.is_gram_point(R.entries, R.n, args.tol)
    failed = [name for name, ok in vars(check).items() if not ok]
    if failed:
        raise ValueError(f"not a Gram point at tol {args.tol:g}: {', '.join(failed)} failed")
    return R


def _verify(args):
    """frame bounds, tightness, sphericity/ellipsoid"""
    F = _frame_in(args.frame)
    b = fl.frame_bounds(F)
    tight, bound = fl.is_tight(F, args.tol)
    doc = {"n": F.n, "k": F.k, "lower": b.lower, "upper": b.upper,
           "tight": tight, "tight_bound": bound}
    if args.axes:
        spec = fl.EllipsoidSpec(tuple(float(x) for x in args.axes.split(",")))
        shape_ok = doc["on_ellipsoid"] = fl.is_on_ellipsoid(F, spec, args.tol)
        doc["expected_tight_bound"] = fl.expected_tight_bound(spec, F.k)
    else:
        shape_ok = doc["spherical"] = fl.is_spherical(F, args.tol)
    doc["pass"] = tight and shape_ok
    return doc, 0 if doc["pass"] else 1


def _partition(args):
    R = jsonio.gram_from_dict(jsonio.read_json(args.input))
    return jsonio.partition_to_dict(fl.commutant_partition(R.entries, args.tol))


def _simplex(args):
    rows = closedform.simplex_rows(args.n)
    return jsonio.frame_rows_to_dict("R", args.n, args.n + 1, rows)


def _enumerate_one_redundant(args):
    count, permutation_orbits, sign_orbits = closedform.one_redundant_counts(args.n)
    doc = {"count": count, "permutation_orbits": permutation_orbits, "sign_orbits": sign_orbits}
    if args.points:
        points = fl.enumerate_one_redundant(args.n).points
        doc["points"] = jsonio.gram_stack_to_dicts("R", 1, points)
    return doc


def _planar_connect(args):
    z = fl.to_planar(_frame_in(args.frame), args.tol)
    return jsonio.path_to_dict(fl.connect_to_standard(z, args.max_step))


def _lift(args):
    cp = jsonio.path_from_dict(jsonio.read_json(args.chainpath))
    start = fl.to_planar(_frame_in(args.start), args.tol)
    return jsonio.path_to_dict(fl.lift_path(cp, start))


def _holonomy(args):
    loop = jsonio.loop_from_dict(jsonio.read_json(args.loop))
    return {"sign": fl.holonomy_sign(loop, args.tol)}


def _surface_report(args):
    C = jsonio.complex_from_dict(jsonio.read_json(args.input))
    return vars(fl.surface_report(C))


_INPUT = ("input", {})
_K = ("--k", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_FIELD = ("--field", {"choices": ("R", "C"), "default": "R"})
_TOL = ("--tol", {})  # default: FRAMELAB_TOL, else DEFAULT_TOL

#: subcommand -> (handler, *argument specs); a handler returns a doc or (doc, exit code)
COMMANDS = {
    "verify": (_verify, ("frame", {}),
               ("--axes", {"help": "comma-separated ellipsoid axes (descending)"}), _TOL),
    "gram": (lambda a: jsonio.gram_to_dict(fl.gram(_frame_in(a.input), a.tol)), _INPUT, _TOL),
    "complement": (lambda a: jsonio.gram_to_dict(fl.complement(_gram_in(a))), _INPUT, _TOL),
    "frame-from-gram": (lambda a: jsonio.frame_to_dict(fl.frame_from_gram(_gram_in(a))),
                        _INPUT, _TOL),
    "partition": (_partition, _INPUT, _TOL),
    "tangent": (lambda a: vars(fl.tangent_report(_gram_in(a), a.tol)), _INPUT, _TOL),
    "simplex": (_simplex, _N),
    "harmonic": (lambda a: jsonio.frame_to_dict(fl.harmonic_frame(a.k, a.n, a.field)),
                 _K, _N, _FIELD),
    "dims": (lambda a: closedform.expected_dimensions(a.k, a.n, a.field), _K, _N, _FIELD),
    "regular-point": (lambda a: jsonio.gram_to_dict(fl.construct_regular_point(a.k, a.n)),
                      _K, _N),
    "enumerate-1red": (
        _enumerate_one_redundant, _N,
        ("--points", {"action": "store_true", "help": "include the Gram matrices"})),
    "planar-connect": (_planar_connect, ("frame", {}),
                       ("--max-step", {"type": float, "default": DEFAULT_MAX_STEP}), _TOL),
    "lift": (_lift, ("chainpath", {}), ("start", {}), _TOL),
    "holonomy": (_holonomy, ("loop", {}), _TOL),
    "complex": (lambda a: jsonio.complex_to_dict(getattr(fl, f"build_{a.which}")()),
                ("which", {"choices": ("g42", "g52")})),
    "surface-report": (_surface_report, _INPUT),
}


def _build_parser(cmd=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``cmd`` alone when it names one;
    the usage line lists every subcommand either way."""
    tol = check_positive(os.environ.get("FRAMELAB_TOL", DEFAULT_TOL), "FRAMELAB_TOL")
    ap = argparse.ArgumentParser(prog="framelab")
    if cmd in COMMANDS:  # the metavar argparse forms from the full parser's choices
        names, listing = [cmd], {"metavar": "{" + ",".join(COMMANDS) + "}"}
    else:
        names, listing = list(COMMANDS), {}
    sub = ap.add_subparsers(dest="cmd", required=True, **listing)
    for name in names:
        handler, *specs = COMMANDS[name]
        # passing help at all, even None, lists the subcommand in -h
        p = sub.add_parser(name, **({"help": handler.__doc__} if handler.__doc__ else {}))
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, tol=tol)
    return ap


def main(argv=None) -> int:
    code = 0
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        args.tol = check_positive(args.tol, "--tol")
        with warnings.catch_warnings():  # an overflow is a refusal, not a line ahead of one
            warnings.simplefilter("error", RuntimeWarning)
            doc = args.handler(args)
        doc, code = doc if isinstance(doc, tuple) else (doc, 0)
        jsonio.write_json(doc)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed early: drop the rest of the output and keep the
        # command's own exit code; stdout now points at devnull so the flush
        # at interpreter exit writes nothing and reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (ValueError, KeyError, OSError, MemoryError, RuntimeWarning) as exc:
        print(f"framelab: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    # no stage gains from a second BLAS thread, which only burns CPU; numpy
    # reads this when a handler first loads it, and a caller's value wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
