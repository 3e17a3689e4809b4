"""Command-line front end.

Subcommands read JSON from file arguments ('-' means stdin), write JSON to
stdout, and compose through pipes.  Exit codes: 0 success / verification
passed, 1 verification failed, 2 malformed input or usage error.  The
environment variable FRAMELAB_TOL overrides the default tolerance.  A
reader that closes the pipe early is not an error: the rest of the output
is dropped, nothing is printed on stderr, and the exit code is the
command's own.

A handler reaches the library through the lazy ``framelab`` package, so a
subcommand loads only the modules it calls: ``complex`` and
``surface-report`` run without numpy.
"""

from __future__ import annotations

import argparse
import os
import sys

import framelab as fl

from . import jsonio
from .defaults import DEFAULT_LOOP_STEP, DEFAULT_MAX_STEP, DEFAULT_TOL, check_positive


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


def _enumerate_one_redundant(args):
    res = fl.enumerate_one_redundant(args.n)
    doc = {"count": len(res.points), "permutation_orbits": res.permutation_orbits,
           "sign_orbits": res.sign_orbits}
    if args.points:
        doc["points"] = [jsonio.gram_to_dict(p) for p in res.points]
    return doc


def _planar_connect(args):
    z = fl.to_planar(_frame_in(args.frame), args.tol)
    return jsonio.path_to_dict(fl.connect_to_standard(z, args.max_step, args.tol))


def _lift(args):
    cp = jsonio.path_from_dict(jsonio.read_json(args.chainpath))
    start = fl.to_planar(_frame_in(args.start), args.tol)
    return jsonio.path_to_dict(fl.lift_path(cp, start, args.tol))


def _holonomy(args):
    loop = jsonio.loop_from_dict(jsonio.read_json(args.loop))
    return {"sign": fl.holonomy_sign(loop, args.tol, args.max_step)}


def _surface_report(args):
    C = jsonio.complex_from_dict(jsonio.read_json(args.input))
    return vars(fl.surface_report(C))


_INPUT = ("input", {})
_K = ("--k", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_FIELD = ("--field", {"choices": ("R", "C"), "default": "R"})
_TOL = ("--tol", {})  # default: FRAMELAB_TOL, else DEFAULT_TOL
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

#: subcommand -> (handler, *argument specs); a handler returns a doc or (doc, exit code)
COMMANDS = {
    "verify": (_verify, ("frame", {}),
               ("--axes", {"help": "comma-separated ellipsoid axes (descending)"}),
               _TOL, _FORMAT),
    "gram": (lambda a: jsonio.gram_to_dict(fl.gram(_frame_in(a.input), a.tol)),
             _INPUT, _TOL, _FORMAT),
    "complement": (lambda a: jsonio.gram_to_dict(fl.complement(_gram_in(a))),
                   _INPUT, _TOL, _FORMAT),
    "frame-from-gram": (lambda a: jsonio.frame_to_dict(fl.frame_from_gram(_gram_in(a))),
                        _INPUT, _TOL, _FORMAT),
    "partition": (_partition, _INPUT, _TOL, _FORMAT),
    "tangent": (
        lambda a: jsonio.tangent_to_dict(fl.tangent_report(_gram_in(a), a.tol)),
        _INPUT, _TOL, _FORMAT),
    "simplex": (lambda a: jsonio.frame_to_dict(fl.simplex_frame(a.n)), _N, _FORMAT),
    "harmonic": (lambda a: jsonio.frame_to_dict(fl.harmonic_frame(a.k, a.n, a.field)),
                 _K, _N, _FIELD, _FORMAT),
    "dims": (lambda a: fl.expected_dimensions(a.k, a.n, a.field),
             _K, _N, _FIELD, _FORMAT),
    "regular-point": (
        lambda a: jsonio.gram_to_dict(fl.construct_regular_point(a.k, a.n)),
        _K, _N, _FORMAT),
    "enumerate-1red": (
        _enumerate_one_redundant, _N,
        ("--points", {"action": "store_true", "help": "include the Gram matrices"}), _FORMAT),
    "planar-connect": (_planar_connect, ("frame", {}),
                       ("--max-step", {"type": float, "default": DEFAULT_MAX_STEP}),
                       _TOL, _FORMAT),
    "lift": (_lift, ("chainpath", {}), ("start", {}), _TOL, _FORMAT),
    "holonomy": (_holonomy, ("loop", {}),
                 ("--max-step", {"type": float, "default": DEFAULT_LOOP_STEP}),
                 _TOL, _FORMAT),
    "complex": (lambda a: jsonio.complex_to_dict(getattr(fl, f"build_{a.which}")()),
                ("which", {"choices": ("g42", "g52")}),
                ("--export", {"metavar": "PATH", "help": "write the JSON to PATH"})),
    "surface-report": (_surface_report, _INPUT, _FORMAT),
}


def _build_parser() -> argparse.ArgumentParser:
    tol = check_positive(os.environ.get("FRAMELAB_TOL", DEFAULT_TOL), "FRAMELAB_TOL")
    ap = argparse.ArgumentParser(prog="framelab")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (handler, *specs) in COMMANDS.items():
        # passing help at all, even None, lists the subcommand in -h
        p = sub.add_parser(name, **({"help": handler.__doc__} if handler.__doc__ else {}))
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler, tol=tol)
    return ap


def main(argv=None) -> int:
    code = 0
    try:
        args = _build_parser().parse_args(argv)
        args.tol = check_positive(args.tol, "--tol")
        doc = args.handler(args)
        doc, code = doc if isinstance(doc, tuple) else (doc, 0)
        if vars(args).get("format") == "text":
            for key, val in doc.items():
                print(f"{key}: {val}")
        else:
            jsonio.write_json(doc, vars(args).get("export") or "-")
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed early: drop the rest of the output and keep the
        # command's own exit code; stdout now points at devnull so the flush
        # at interpreter exit writes nothing and reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (ValueError, KeyError, OSError) as exc:
        print(f"framelab: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
