"""Measurement machinery for the framelab benchmark.

Nothing here imports numpy or framelab at module level: `run.py` pins the
BLAS thread variables before the first numpy import, and the set-up clock
must include that import.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import hashlib
import importlib
import inspect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Default BLAS threading makes dense timings bimodal on small machines
#: (one 48x24 tangent report took 5 ms or 260 ms from run to run), so every
#: process the benchmark runs is pinned to one thread.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

#: framelab modules whose public functions the benchmark calls; each is a layer.
LAYERS = ("frames", "grassmann", "stratification", "planar", "cellcomplex",
          "jsonio", "cli")


class Refused(Exception):
    """The run cannot produce a valid measurement (layout or environment)."""


class CheckFailed(Exception):
    """An output of the program failed its correctness check."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# environment


def pin_threads() -> dict:
    """Pin the BLAS thread variables for this process and its children.

    Returns the values inherited from the caller, for the record.  Must run
    before numpy is imported, since OpenBLAS reads them once at load time.
    """
    if "numpy" in sys.modules:
        raise Refused("numpy was imported before the thread variables were pinned")
    inherited = {var: os.environ.get(var) for var in PINNED_THREADS}
    os.environ.update(PINNED_THREADS)
    return inherited


def child_env() -> dict:
    """Environment of every child process: pinned threads, checkout's src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def check_layout() -> None:
    if not (SRC / "framelab" / "__init__.py").is_file():
        raise Refused(f"no framelab sources under {SRC}; run from a full checkout")


def _openblas_runtime():
    """(threads, config) reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return int(get_threads()), get_config().decode()
    return None, None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "framelab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def environment(inherited: dict) -> dict:
    """Record of what the numbers depend on; refuses a run whose OpenBLAS
    reports more than one thread."""
    import numpy as np

    blas_threads, blas_runtime = _openblas_runtime()
    if blas_threads is not None and blas_threads != 1:
        raise Refused(f"OpenBLAS runs {blas_threads} threads despite the pinned variables")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        **{var: os.environ[var] for var in PINNED_THREADS},
        "inherited": inherited,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_runtime": blas_runtime,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory until the run ends.

    A span is [name, start, end, parent index, item id, failed, is_call];
    `is_call` marks a span around one call into a public framelab function.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, is_call: bool = False):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.item, False, is_call]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, is_call=True):
                return fn(*args, **kwargs)
        return traced

    def count(self, name: str, n) -> None:
        self.counts[name] += n

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, item, failed, is_call) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item,
                                     "failed": failed, "call": is_call}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class NoTracer:
    """Tracing off: library functions are called directly, spans cost one call."""

    item = None
    _null = contextlib.nullcontext()

    def span(self, name: str, is_call: bool = False):
        return self._null

    def wrap(self, name: str, fn):
        return fn

    def count(self, name: str, n) -> None:
        pass


class _Layer:
    """One framelab module; its public functions optionally wrapped in spans."""

    def __init__(self, layer: str, module, tracer):
        self._layer, self._module, self._tracer = layer, module, tracer

    def __getattr__(self, fname: str):
        fn = getattr(self._module, fname)
        if inspect.isfunction(fn) and not fname.startswith("_"):
            fn = self._tracer.wrap(f"{self._layer}.{fname}", fn)
        setattr(self, fname, fn)
        return fn


class Lib:
    """framelab's layers as a workload calls them, e.g. ``lib.grassmann.gram``.

    With a Tracer every call into a public function records one span named
    ``<layer>.<function>``; with NoTracer the functions are the modules' own.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        for layer in LAYERS:
            setattr(self, layer, _Layer(layer, importlib.import_module(f"framelab.{layer}"), tracer))


# ---------------------------------------------------------------------------
# child processes


def run_child(argv, stdin: bytes, env: dict):
    """Run one process to completion; returns (exit code, stdout, stderr, peak RSS KiB).

    Waits with wait4 so the child's own peak resident set is known.
    """
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=str(ROOT))
    err = []

    def feed():
        try:
            with proc.stdin:
                proc.stdin.write(stdin)
        except BrokenPipeError:
            pass  # the child exited without reading its input; its exit code says why

    writer = threading.Thread(target=feed)
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    writer.start()
    reader.start()
    try:
        out = proc.stdout.read()
    finally:
        writer.join()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


# ---------------------------------------------------------------------------
# machine speed


#: The speed of a small shared machine drifts by up to 1.8x within minutes
#: (neighbours' load), in CPU time as much as in wall time, so raw times of
#: two runs of the same code can differ by more than any useful bound.  Every
#: reported time is therefore scaled to a machine on which the calibration
#: kernel below takes CALIBRATION_REF_S; raw figures are printed beside them.
CALIBRATION_REF_S = 0.008
#: the measured loop calibrates again once this much time has passed
CALIBRATION_INTERVAL_S = 0.5


class Calibrator:
    """A fixed kernel that uses no framelab code: Python bytecode, one-thread
    LAPACK and the JSON codec, the three kinds of work the workloads do."""

    def __init__(self):
        import numpy as np

        m = np.random.default_rng(0).standard_normal((48, 48))
        self._matrix = m + m.T
        self._rows = self._matrix.tolist()
        self._eigh = np.linalg.eigh
        self.samples = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        for _ in range(6):
            self._eigh(self._matrix)
        json.loads(json.dumps(self._rows))
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of three kernel runs, in seconds; also kept in `samples`."""
        t = statistics.median(self._kernel() for _ in range(3))
        self.samples.append(t)
        return t

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two samples into reference time."""
        return CALIBRATION_REF_S / ((before + after) / 2)


# ---------------------------------------------------------------------------
# the measured loop


class Recorder:
    """Per-item outcomes of one run."""

    def __init__(self):
        self.times = []          # seconds per measured item, raw
        self.scales = []         # calibration factor of each measured item
        self.attempted = 0
        self.failed = 0


def run_round(items, lib, tracer, rec: Recorder, timed: bool) -> None:
    """Run one cycle of the mix; every item is checked, failures are counted."""
    for item_id, (label, fn, args) in items:
        tracer.item = item_id
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.item"):
                fn(lib, tracer, *args)
        except CheckFailed as exc:
            rec.failed += 1
            print(f"check failed: {label}: {exc}", file=sys.stderr)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            rec.failed += 1
            print(f"item raised: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = time.perf_counter() - t0
        rec.attempted += 1
        if timed:
            rec.times.append(dt)
        tracer.item = None


def number_items(pool):
    """Give every item of every round a run-wide id for its spans."""
    out, n = [], 0
    for rnd in pool:
        out.append([(n + i, item) for i, item in enumerate(rnd)])
        n += len(rnd)
    return out


def measure_untraced(pool, lib, seconds: float, rec: Recorder, cal: Calibrator):
    """Whole rounds, cycling through the pool, until `seconds` have elapsed.

    The calibration kernel runs between rounds, at least every
    CALIBRATION_INTERVAL_S; each round is scaled by the mean of the two
    samples around it.  Returns (raw, scaled) wall time of the measured rounds.
    """
    rounds = number_items(pool)
    deadline = time.perf_counter() + seconds
    before = cal.sample()
    since = time.perf_counter()
    pending, raw, scaled, i = 0.0, 0.0, 0.0, 0
    while True:
        t0 = time.perf_counter()
        run_round(rounds[i % len(rounds)], lib, lib.tracer, rec, timed=True)
        now = time.perf_counter()
        pending += now - t0
        i += 1
        done = now >= deadline
        if done or now - since >= CALIBRATION_INTERVAL_S:
            after = cal.sample()
            factor = cal.scale(before, after)
            raw += pending
            scaled += pending * factor
            rec.scales.extend([factor] * (len(rec.times) - len(rec.scales)))
            pending, before, since = 0.0, after, time.perf_counter()
        if done:
            return raw, scaled


def measure_traced(pool, plain, traced, seconds: float, cal: Calibrator):
    """Whole pool passes, alternating traced and untraced, until `seconds`
    have elapsed and each kind ran at least once.

    Each pass is scaled by the calibration samples around it, so the two
    rates compare like with like.  Returns (traced passes, traced items/s,
    untraced items/s, recorder).
    """
    rounds = number_items(pool)
    rec = Recorder()
    wall = {True: 0.0, False: 0.0}
    items = {True: 0, False: 0}
    passes = {True: 0, False: 0}
    deadline = time.perf_counter() + seconds
    use_trace = True
    before = cal.sample()
    while True:
        lib = traced if use_trace else plain
        start_items = rec.attempted
        t0 = time.perf_counter()
        for rnd in rounds:
            run_round(rnd, lib, lib.tracer, rec, timed=False)
        elapsed = time.perf_counter() - t0
        after = cal.sample()
        wall[use_trace] += elapsed * cal.scale(before, after)
        before = after
        items[use_trace] += rec.attempted - start_items
        passes[use_trace] += 1
        use_trace = not use_trace
        if time.perf_counter() >= deadline and passes[True] and passes[False]:
            break
    return (passes[True], items[True] / wall[True], items[False] / wall[False], rec)


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(times, wall: float, setup_samples, peak_rss_kib: int) -> dict:
    ts = sorted(times)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_items_per_s": (len(ts) / wall, "items/s"),
        "item_p50_ms": (nearest_rank(ts, 0.5) * 1e3, "ms"),
        "item_p90_ms": (nearest_rank(ts, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _union_ms(intervals) -> float:
    total, end = 0.0, -math.inf
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total * 1e3


def layer_metrics(tracer: Tracer, passes: int, rounds_per_pass: int, named, counts) -> dict:
    """Per-layer metrics per round (one cycle of the mix) of the traced passes.

    `named` maps a metric prefix to the span names it sums, `counts` maps a
    count metric to its unit.  Spans with a non-integer item id (set-up and
    probes) are left out.
    """
    per_round = 1.0 / (passes * rounds_per_pass)
    child_time = Counter()
    for _, t0, t1, parent, *_ in tracer.spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    spans = [(i, s) for i, s in enumerate(tracer.spans) if isinstance(s[4], int)]
    out = {}
    for layer in LAYERS:
        mine = [(i, s) for i, s in spans if s[0].split(".", 1)[0] == layer]
        self_s = sum((s[2] - s[1]) - child_time[i] for i, s in mine)
        out[f"{layer}.calls"] = (sum(1 for _, s in mine if s[6]) * per_round, "count")
        out[f"{layer}.busy_ms"] = (_union_ms((s[1], s[2]) for _, s in mine) * per_round, "ms")
        out[f"{layer}.self_ms"] = (self_s * 1e3 * per_round, "ms")
        out[f"{layer}.failed"] = (sum(1 for _, s in mine if s[5]) * per_round, "count")
    for metric, names in named.items():
        busy = sum(s[2] - s[1] for _, s in spans if s[0] in names)
        out[f"{metric}.busy_ms"] = (busy * 1e3 * per_round, "ms")
    for metric, unit in counts.items():
        out[metric] = (tracer.counts[metric] * per_round, unit)
    return out


def span_ms(tracer: Tracer, name: str, item=None):
    """Durations (ms) of the spans called `name`, optionally of one item id."""
    return [(s[2] - s[1]) * 1e3 for s in tracer.spans
            if s[0] == name and (item is None or s[4] == item)]


def import_probe_ms(tracer: Tracer, env: dict, repeats: int) -> float:
    """Median wall time of a fresh ``python -c "import framelab.cli"``."""
    for _ in range(repeats):
        tracer.item = "probe"
        with tracer.span("cli.import"):
            code, _, err, _ = run_child([sys.executable, "-c", "import framelab.cli"], b"", env)
        if code != 0:
            raise CheckFailed(f"importing framelab.cli exited {code}: {err.decode()[-300:]}")
    tracer.item = None
    return statistics.median(span_ms(tracer, "cli.import", "probe"))
