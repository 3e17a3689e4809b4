"""Run the benchmark over several seeds and check each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--json PATH]

For every workload in BENCHMARK.json and every end-to-end metric it runs
``--trace 0`` once per seed and prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.  It
exits 1 when a spread exceeds its bound; ``setup_s`` is reported but not
checked, as the acceptance check exempts it from the spread test and only
compares its median between two sets.  ``--json PATH`` also writes the
summary, every run's scaled and raw values, the calibration medians and the
environment of the first run (the form of baseline.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _line(lines, prefix: str):
    return json.loads(next(l for l in lines if l.startswith(prefix))[len(prefix):])


def _stats(vals) -> dict:
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else float("nan"), "values": vals}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--json", type=Path, help="write all runs here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"seeds": _seeds(args.seeds), "seconds": seconds,
               "environment": None, "workloads": {}}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values, raw_values, units, calibration = {}, {}, {}, []
        for seed in summary["seeds"]:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            elapsed = time.perf_counter() - t0
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                return out.returncode or 1
            lines = out.stdout.strip().splitlines()
            if summary["environment"] is None:
                summary["environment"] = _line(lines, "environment ")
            raw = _line(lines, "raw ")
            calibration.append(raw["calibration_median_ms"])
            for name, m in raw["metrics"].items():
                raw_values.setdefault(name, []).append(m["value"])
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        table = summary["workloads"][workload] = {
            "calibration_median_ms": _stats(calibration),
            "raw": {name: _stats(vals) for name, vals in raw_values.items()}}
        for name, vals in values.items():
            table[name] = {"unit": units[name], **_stats(vals)}
            rel, bound = table[name]["iqr_over_median"], bounds[name]
            if name != "setup_s":
                worst = max(worst, rel / bound)
            print(f"  {workload:13s} {name:26s} median {table[name]['median']:12.6g}  "
                  f"IQR/median {rel:7.2%}  bound {bound:.0%}"
                  + ("  (not checked)" if name == "setup_s" else ""))
    print(f"largest spread as a share of its bound (setup_s not checked): {worst:.2f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
