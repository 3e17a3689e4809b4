"""Smoke test of the benchmark itself: every workload at minimal size.

    python3 -m pytest perfbench/test_smoke.py

``--seconds 0`` measures the smallest complete run: one round untraced,
one traced and one untraced pass of the pool when traced.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(cmd + ["--workload", workload, "--seed", "7", "--seconds", "0",
                                 "--trace", str(trace)],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m
        assert got["unit"] == m["unit"], m
        # the human-readable line carries the unit too
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    out = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert out.returncode not in (0, None)
    assert '"metrics"' not in out.stdout
