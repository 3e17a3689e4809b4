"""Command-line front end.

Subcommands read JSON from file arguments ('-' means stdin), write JSON to
stdout, and compose through pipes.  Exit codes: 0 success / verification
passed, 1 verification failed, 2 malformed input or usage error.  The
environment variable FRAMELAB_TOL overrides the default tolerance.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import cellcomplex, frames, grassmann, jsonio, planar, stratification


def _default_tol() -> float:
    raw = os.environ.get("FRAMELAB_TOL")
    if raw is None:
        return frames.DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        tol = float("nan")
    if not np.isfinite(tol):
        raise ValueError(f"FRAMELAB_TOL must be a finite number, got {raw!r}")
    return tol


def _emit(doc, fmt: str) -> None:
    if fmt == "text":
        for key, val in doc.items():
            print(f"{key}: {val}")
    else:
        jsonio.write_json(doc)


def _add_common(p, tol=True, fmt=True):
    if tol:
        p.add_argument("--tol", type=float, default=_default_tol())
    if fmt:
        p.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="framelab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="frame bounds, tightness, sphericity/ellipsoid")
    p.add_argument("frame")
    p.add_argument("--axes", help="comma-separated ellipsoid axes (descending)")
    _add_common(p)

    for name in ("gram", "complement", "frame-from-gram", "partition", "tangent"):
        p = sub.add_parser(name)
        p.add_argument("input")
        _add_common(p)

    p = sub.add_parser("simplex")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, tol=False)

    p = sub.add_parser("harmonic")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="R")
    _add_common(p, tol=False)

    p = sub.add_parser("dims")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=("R", "C"), default="R")
    _add_common(p, tol=False)

    p = sub.add_parser("regular-point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, tol=False)

    p = sub.add_parser("enumerate-1red")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", action="store_true", help="include the Gram matrices")
    _add_common(p, tol=False)

    p = sub.add_parser("planar-connect")
    p.add_argument("frame")
    p.add_argument("--max-step", type=float, default=planar.DEFAULT_MAX_STEP)
    _add_common(p)

    p = sub.add_parser("lift")
    p.add_argument("chainpath")
    p.add_argument("start")
    _add_common(p)

    p = sub.add_parser("holonomy")
    p.add_argument("loop")
    p.add_argument("--max-step", type=float, default=grassmann.DEFAULT_LOOP_STEP)
    _add_common(p)

    p = sub.add_parser("complex")
    p.add_argument("which", choices=("g42", "g52"))
    p.add_argument("--export", metavar="PATH", help="write the JSON to PATH")
    _add_common(p, tol=False, fmt=False)

    p = sub.add_parser("surface-report")
    p.add_argument("input")
    _add_common(p, tol=False)

    return ap


def _cmd_verify(args) -> int:
    F = jsonio.frame_from_dict(jsonio.read_json(args.frame))
    b = frames.frame_bounds(F)
    tight, bound = frames.is_tight(F, args.tol)
    doc = {"n": F.n, "k": F.k, "lower": b.lower, "upper": b.upper,
           "tight": tight, "tight_bound": bound}
    ok = tight
    if args.axes:
        spec = frames.EllipsoidSpec(tuple(float(x) for x in args.axes.split(",")))
        on = frames.is_on_ellipsoid(F, spec, args.tol)
        doc["on_ellipsoid"] = on
        doc["expected_tight_bound"] = frames.expected_tight_bound(spec, F.k)
        ok = ok and on
    else:
        sph = frames.is_spherical(F, args.tol)
        doc["spherical"] = sph
        ok = ok and sph
    doc["pass"] = ok
    _emit(doc, args.format)
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.cmd == "verify":
            return _cmd_verify(args)
        if args.cmd == "gram":
            F = jsonio.frame_from_dict(jsonio.read_json(args.input))
            _emit(jsonio.gram_to_dict(grassmann.gram(F, args.tol)), args.format)
            return 0
        if args.cmd == "complement":
            R = jsonio.gram_from_dict(jsonio.read_json(args.input))
            _emit(jsonio.gram_to_dict(grassmann.complement(R)), args.format)
            return 0
        if args.cmd == "frame-from-gram":
            R = jsonio.gram_from_dict(jsonio.read_json(args.input))
            _emit(jsonio.frame_to_dict(grassmann.frame_from_gram(R)), args.format)
            return 0
        if args.cmd == "simplex":
            _emit(jsonio.frame_to_dict(frames.simplex_frame(args.n)), args.format)
            return 0
        if args.cmd == "harmonic":
            F = stratification.harmonic_frame(args.k, args.n, args.field)
            _emit(jsonio.frame_to_dict(F), args.format)
            return 0
        if args.cmd == "partition":
            R = jsonio.gram_from_dict(jsonio.read_json(args.input))
            p = stratification.commutant_partition(R.entries, args.tol)
            _emit(jsonio.partition_to_dict(p), args.format)
            return 0
        if args.cmd == "tangent":
            R = jsonio.gram_from_dict(jsonio.read_json(args.input))
            rep = stratification.tangent_report(R, args.tol)
            _emit(jsonio.tangent_to_dict(rep), args.format)
            return 0
        if args.cmd == "dims":
            _emit(stratification.expected_dimensions(args.k, args.n, args.field),
                  args.format)
            return 0
        if args.cmd == "regular-point":
            R = stratification.construct_regular_point(args.k, args.n)
            _emit(jsonio.gram_to_dict(R), args.format)
            return 0
        if args.cmd == "enumerate-1red":
            res = grassmann.enumerate_one_redundant(args.n)
            doc = {"count": len(res.points),
                   "permutation_orbits": res.permutation_orbits,
                   "sign_orbits": res.sign_orbits}
            if args.points:
                doc["points"] = [jsonio.gram_to_dict(p) for p in res.points]
            _emit(doc, args.format)
            return 0
        if args.cmd == "planar-connect":
            F = jsonio.frame_from_dict(jsonio.read_json(args.frame))
            z = planar.to_planar(F, args.tol)
            path = planar.connect_to_standard(z, args.max_step, args.tol)
            _emit(jsonio.path_to_dict(path), args.format)
            return 0
        if args.cmd == "lift":
            cp = jsonio.path_from_dict(jsonio.read_json(args.chainpath))
            start = planar.to_planar(
                jsonio.frame_from_dict(jsonio.read_json(args.start)), args.tol)
            _emit(jsonio.path_to_dict(planar.lift_path(cp, start, args.tol)),
                  args.format)
            return 0
        if args.cmd == "holonomy":
            loop = jsonio.loop_from_dict(jsonio.read_json(args.loop))
            sign = grassmann.holonomy_sign(loop, args.tol, args.max_step)
            _emit({"sign": sign}, args.format)
            return 0
        if args.cmd == "complex":
            C = cellcomplex.build_g42() if args.which == "g42" else cellcomplex.build_g52()
            doc = jsonio.complex_to_dict(C)
            jsonio.write_json(doc, args.export or "-")
            return 0
        if args.cmd == "surface-report":
            C = jsonio.complex_from_dict(jsonio.read_json(args.input))
            r = cellcomplex.surface_report(C)
            _emit({"v": r.v, "e": r.e, "f": r.f, "euler": r.euler,
                   "closed_surface": r.closed_surface, "orientable": r.orientable,
                   "connected": r.connected, "genus": r.genus}, args.format)
            return 0
        raise ValueError(f"unknown command {args.cmd!r}")
    except (ValueError, KeyError, OSError) as exc:
        print(f"framelab: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
