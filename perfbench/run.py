"""framelab benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload planar-paths --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a full checkout; it imports framelab from the
checkout's ``src``.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from a traced run, and writes the
spans to ``perfbench/out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
With ``--trace 0`` an earlier line ``raw {...}`` holds the same end-to-end
times unscaled and the calibration median (see README).
Exit codes: 0 every output checked out, 1 some output was wrong, 2 the run
was refused (no framelab sources, or the loaded OpenBLAS runs more than one
thread).
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: before numpy and framelab load

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys

import harness

#: set-up runs in this many processes (this one included); the median is reported
SETUP_REPEATS = 5
#: fresh ``import framelab.cli`` processes timed in a traced run
IMPORT_PROBES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli-pipes", "gram-grid", "planar-paths", "topology"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time (default: run_seconds in BENCHMARK.json); "
                         "0 runs the smallest complete measurement")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up seconds and exit (used internally)")
    args = ap.parse_args(argv)
    if args.seconds is None:
        spec = harness.ROOT / "BENCHMARK.json"
        if not spec.is_file():
            raise harness.Refused(f"no {spec.name} at {harness.ROOT} and no --seconds")
        args.seconds = float(json.loads(spec.read_text())["run_seconds"])
    return args


def _setup_samples(args, env, cal, own: float, own_scale: float):
    """Set-up seconds of this process and of SETUP_REPEATS - 1 fresh ones,
    raw and scaled by the calibration samples taken around each."""
    raw, scaled = [own], [own * own_scale]
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    before = cal.sample()
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(argv, capture_output=True, text=True, env=env,
                             cwd=str(harness.ROOT), timeout=120)
        if out.returncode != 0:
            raise harness.Refused(f"set-up process exited {out.returncode}: {out.stderr[-500:]}")
        after = cal.sample()
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * cal.scale(before, after))
        before = after
    return raw, scaled


def _emit(correct, rec, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    args = _parse(argv)
    inherited = harness.pin_threads()
    harness.check_layout()
    sys.path.insert(0, str(harness.SRC))

    import workloads  # numpy and framelab load here, inside the set-up clock

    workload = workloads.WORKLOADS[args.workload]()
    plain = harness.Lib(harness.NoTracer())
    tracer = harness.Tracer() if args.trace else None
    setup_lib = harness.Lib(tracer) if tracer else plain
    if tracer:
        tracer.item = "setup"
    pool = workload.setup(args.seed, setup_lib)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    cal = harness.Calibrator()
    setup_scale = harness.CALIBRATION_REF_S / cal.sample()
    env = harness.environment(inherited)
    print("environment " + json.dumps(env, sort_keys=True))
    child_env = harness.child_env()
    rec = harness.Recorder()
    # warm-up: one untimed round, checked like every other
    harness.run_round(harness.number_items(pool)[0], plain, plain.tracer, rec, timed=False)

    if not args.trace:
        setup_raw, setup = _setup_samples(args, child_env, cal, setup_s, setup_scale)
        raw_wall, wall = harness.measure_untraced(pool, plain, args.seconds, rec, cal)
        peak = (workload.peak_rss_kib() if hasattr(workload, "peak_rss_kib")
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        metrics = harness.end_to_end([t * f for t, f in zip(rec.times, rec.scales)],
                                     wall, setup, peak)
        raw = harness.end_to_end(rec.times, raw_wall, setup_raw, peak)
        n = len(rec.times)
        print(f"fail_ratio {rec.failed / rec.attempted:.6g} ratio "
              f"({rec.failed} of {rec.attempted} items)")
        print(f"item_p90_ms over {n} items, {n - math.ceil(0.9 * n)} beyond it"
              + ("" if n - math.ceil(0.9 * n) >= 10 else " (fewer than 10: indicative only)"))
        print("raw " + json.dumps({
            "calibration_median_ms": statistics.median(cal.samples) * 1e3,
            "calibration_samples": len(cal.samples),
            "reference_ms": harness.CALIBRATION_REF_S * 1e3,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in raw.items() if name != "peak_rss_mb"}}))
    else:
        traced = harness.Lib(tracer)
        passes, traced_rate, plain_rate, measured = harness.measure_traced(
            pool, plain, traced, args.seconds, cal)
        rec.attempted += measured.attempted
        rec.failed += measured.failed
        metrics = harness.layer_metrics(tracer, passes, len(pool),
                                        workloads.NAMED_SPANS, workloads.COUNTS)
        process = harness.span_ms(tracer, "cli.process")
        metrics["cli.process_ms"] = (statistics.median(process) if process else 0.0, "ms")
        probes = {"cli.import_ms": lambda: harness.import_probe_ms(tracer, child_env,
                                                                   IMPORT_PROBES)}
        if hasattr(workload, "probe"):
            probes["cli.main.busy_ms"] = lambda: workload.probe(traced, pool)
        else:
            metrics["cli.main.busy_ms"] = (0.0, "ms")
        for name, probe in probes.items():
            rec.attempted += 1
            try:
                metrics[name] = (probe(), "ms")
            except harness.CheckFailed as exc:
                rec.failed += 1
                metrics[name] = (0.0, "ms")
                print(f"check failed: {name}: {exc}", file=sys.stderr)
        metrics["stratification.random_tight_frame.setup_ms"] = (
            sum(harness.span_ms(tracer, "stratification.random_tight_frame", "setup")), "ms")
        metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
        scale = harness.CALIBRATION_REF_S / statistics.median(cal.samples)
        metrics = {name: (value * scale if unit == "ms" else value, unit)
                   for name, (value, unit) in metrics.items()}
        print(f"calibration kernel median {statistics.median(cal.samples) * 1e3:.3f} ms; "
              f"ms below are scaled by {scale:.4f}")
        out = harness.ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out)
        print(f"spans written to {out.relative_to(harness.ROOT)} "
              f"({len(tracer.spans)} spans, {passes} traced passes)")

    correct = rec.failed == 0
    _emit(correct, rec, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        sys.exit(2)
