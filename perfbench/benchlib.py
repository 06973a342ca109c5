"""Shared machinery of the benchmark: timing, tracing, digests, reporting.

Nothing here imports ``repro`` at module level, so ``run.py`` can time
the import of the system under test as part of set-up.  The tracing
helpers take the ``repro.obs`` classes as arguments for the same reason.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns ``(value, level_percent, sample_count)``.  The value is the
    ``TAIL_BEYOND + 1``-th largest sample, so exactly ``TAIL_BEYOND``
    samples lie beyond it; with fewer samples than that the maximum is
    reported at level 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


# -- host speed -----------------------------------------------------------------
#
# The benchmark shares a few cores of a host whose speed drifts by up to
# 2x within minutes (other tenants' load), far more than any bound a
# regression check can use.  So the end-to-end timings are reported at a
# reference speed: the benchmark times a fixed calibration kernel between
# its ops and scales each op's seconds by ``KERNEL_REF_S`` over the
# kernel's median time around that op.  The kernel is independent of
# ``repro``, so no change to the program moves it, and it does the same
# kind of interpreter work as the optimizer (small objects, frozensets,
# tuple-keyed dicts).  README.md ("Host speed") gives the measurements.

#: Objects the calibration kernel walks.
KERNEL_N = 4000
#: The kernel's time at the reference speed, about its median time on a
#: 2-vCPU host (where single samples range from 1.3 to 3 ms).
KERNEL_REF_S = 0.0025
#: Least time between two calibration samples taken between ops.
SAMPLE_EVERY_S = 0.2
#: An op's speed factor comes from the samples within this many seconds
#: of it.
NEAR_S = 1.0


class _Cell:
    __slots__ = ("key", "attrs")

    def __init__(self, key, attrs):
        self.key = key
        self.attrs = attrs


_CELLS: list[_Cell] = []
_MEMO: dict = {}


def kernel() -> int:
    """Fixed interpreter-bound work, independent of the program.

    Its objects and table are built on the first call and reused, so
    later calls allocate nothing that outlives them: the time does not
    depend on the state the program left the process's heap in.
    """
    if not _CELLS:
        _CELLS.extend(
            _Cell(i, frozenset((i % 11, i % 7, i % 5))) for i in range(KERNEL_N)
        )
    memo = _MEMO
    total = 0
    for cell in _CELLS:
        key = (cell.attrs, cell.key % 17)
        memo[key] = (memo.get(key, 0) + len(cell.attrs)) & 0xFF
        total += memo[key]
    return total


class HostClock:
    """Calibration samples of the host's speed over one process's life.

    Each CPU of a shared host drifts on its own.  A workload whose work
    runs in this thread samples the CPU the thread runs on; one whose
    work runs in other processes too (``each_cpu``) samples every CPU it
    may use, pinned to each in turn, and takes their mean.
    """

    def __init__(self, each_cpu: bool = False) -> None:
        self.cpus = (
            sorted(os.sched_getaffinity(0))
            if each_cpu and hasattr(os, "sched_setaffinity")
            else []
        )
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spent = 0.0
        self._last = -math.inf

    def _time_kernel(self) -> float:
        if not self.cpus:
            t0 = time.perf_counter()
            kernel()
            return time.perf_counter() - t0
        took = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                t0 = time.perf_counter()
                kernel()
                took.append(time.perf_counter() - t0)
        finally:
            os.sched_setaffinity(0, self.cpus)
        return sum(took) / len(took)

    def sample(self, count: int = 1) -> None:
        if not _MEMO:
            kernel()  # builds the kernel's objects; not a sample
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                took = self._time_kernel()
                t1 = time.perf_counter()
                self.samples.append(((t0 + t1) / 2, took))
                self.spent += t1 - t0
                self._last = t1
        finally:
            if enabled:
                gc.enable()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= SAMPLE_EVERY_S

    def tick(self) -> None:
        """Take a sample between ops if ``SAMPLE_EVERY_S`` has passed."""
        if self.due():
            self.sample()

    def factor(self, begin: float | None = None, end: float | None = None) -> float:
        """``KERNEL_REF_S`` over the median kernel time of the samples
        within ``NEAR_S`` of ``[begin, end]`` (of all samples when no
        interval is given or none lies near it)."""
        times = [t for t, _ in self.samples]
        near = []
        if begin is not None:
            lo = bisect.bisect_left(times, begin - NEAR_S)
            hi = bisect.bisect_right(times, (begin if end is None else end) + NEAR_S)
            near = [s for _, s in self.samples[lo:hi]]
        near = near or [s for _, s in self.samples]
        return KERNEL_REF_S / statistics.median(near) if near else 1.0

    def scaled(self, seconds: float, begin: float, end: float) -> float:
        """``seconds`` spent over ``[begin, end]``, at the reference speed."""
        return seconds * self.factor(begin, end)


# -- digests --------------------------------------------------------------------


def digest(value) -> str:
    """Process-independent digest of a value built from repr-stable parts."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def bag_digest(bag) -> str:
    """Digest of a multiset (``Counter``) independent of iteration order."""
    return digest(sorted(f"{key!r}*{count}" for key, count in bag.items()))


#: Relative tolerance for estimated costs in the golden digest.  The
#: optimizer sums record widths over a ``frozenset`` of attributes, whose
#: order follows string hashing, so estimated costs can differ in the last
#: bits between processes with different ``PYTHONHASHSEED`` values.
COST_RTOL = 1e-9


def matches(want, got) -> bool:
    """Equality, except that floats agree to ``COST_RTOL``."""
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(want, (int, float))
            and isinstance(got, (int, float))
            and math.isclose(want, got, rel_tol=COST_RTOL)
        )
    if isinstance(want, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(want) == len(got) and all(map(matches, want, got))
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(
            matches(want[k], got[k]) for k in want
        )
    return want == got


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# -- memory ---------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (0 when unreadable)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# -- per-op recording -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Context:
    """What a workload's set-up gets from the command line."""

    seed: int
    seconds: float
    size: str  # "full" or "tiny"
    inject: str  # "none", "drop-record" or "doctor-cost"
    traced: bool


@dataclass(slots=True)
class OpRecord:
    """One measured operation of the system under test."""

    kind: str
    latency: float
    ok: bool
    traced: bool
    attrs: dict = field(default_factory=dict)
    #: ``time.perf_counter()`` when the op started (or was due).
    begin: float = 0.0

    def scaled(self, clock: HostClock) -> float:
        """The op's latency at the reference speed."""
        return clock.scaled(self.latency, self.begin, self.begin + self.latency)


class Recorder:
    """Collects op records, deterministic counters, and (traced) spans.

    In a traced run every other unit of work (a round of ops in the closed
    loops, an op in the open loop) carries a live ``repro.obs.Tracer``; the
    rest run untraced, so the two halves measure the tracing overhead
    under the same load.  Per-op tracers are folded into one sink tracer
    (thread-safe), the way the planning server folds per-request tracers.
    """

    def __init__(
        self, tracer_cls, noop_tracer, traced: bool, clock: HostClock | None = None
    ) -> None:
        self.clock = clock or HostClock()
        self.tracer_cls = tracer_cls
        self.noop = noop_tracer
        self.traced_run = traced
        self.sink = tracer_cls() if traced else None
        self.ops: list[OpRecord] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def tracer_for(self, unit: int):
        if self.traced_run and unit % 2 == 1:
            return self.tracer_cls()
        return self.noop

    def finish(self, tracer, record: OpRecord, counts: dict | None = None) -> None:
        with self._lock:
            self.ops.append(record)
            if tracer is not self.noop:
                self.sink.absorb(tracer)
            if counts and (record.traced or not self.traced_run):
                for name, value in counts.items():
                    self.counts[name] += value

    def error(self, message: str) -> None:
        with self._lock:
            self.errors.append(message)

    def missing(self, count: int, message: str) -> None:
        """Record ``count`` ops that were due but never finished as failed."""
        if count > 0:
            with self._lock:
                lost = OpRecord("missing", 0.0, False, False)
                self.ops += [lost] * count
                self.errors.append(f"{count} {message}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def latencies(self, traced: bool | None = None) -> list[float]:
        """Wall-clock latencies of the ok ops."""
        return [
            op.latency
            for op in self.ops
            if op.ok and (traced is None or op.traced == traced)
        ]

    def scaled_latencies(self, traced: bool | None = None) -> list[float]:
        """Latencies of the ok ops at the reference speed."""
        return [
            op.scaled(self.clock)
            for op in self.ops
            if op.ok and (traced is None or op.traced == traced)
        ]

    # -- span analysis -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span category (duration minus direct children)."""
        if self.sink is None:
            return {}
        child: dict[int, float] = defaultdict(float)
        for span in self.sink.spans:
            if span.parent_id is not None:
                child[span.parent_id] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span in self.sink.spans:
            own = span.duration - child.get(span.span_id, 0.0)
            out[span.category] += max(0.0, own)
        return dict(out)

    def write_trace(self, write_jsonl, workload: str, seed: int) -> Path | None:
        if self.sink is None:
            return None
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"{workload}-seed{seed}.trace.jsonl"
        write_jsonl(self.sink, path)
        return path


# -- result assembly ------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_optimization(result, counts: dict) -> None:
    """Add one ``OptimizationResult``'s work to the optimizer counters."""
    stats = result.search_stats
    counts["optimizer.calls"] += 1
    counts["optimizer.enumerate_s"] += result.enumeration_seconds
    counts["optimizer.cost_s"] += result.physical_seconds
    counts["optimizer.expanded"] += stats.expanded
    counts["optimizer.costed"] += stats.costed
    counts["optimizer.estimates"] += stats.estimate_calls


def optimizer_layer(counts: dict, selfs: dict) -> dict:
    """The optimizer's per-layer metrics from its counters and self time."""
    names = ("calls", "enumerate_s", "cost_s", "reoptimize_s", "expanded", "costed")
    out = {f"optimizer.{n}": counts[f"optimizer.{n}"] for n in names}
    out["optimizer.estimates"] = counts["optimizer.estimates"]
    out["optimizer.busy_s"] = selfs.get("optimizer", 0.0)
    out["optimizer.costed_ratio"] = ratio(
        counts["optimizer.costed"], counts["optimizer.expanded"]
    )
    return out


def common_layers(recorder: Recorder) -> dict:
    """Per-layer metrics every workload reports the same way."""
    selfs = recorder.self_times()
    out = {
        "check.busy_s": selfs.get("check", 0.0),
        "loadgen.busy_s": selfs.get("loadgen", 0.0),
    }
    if recorder.traced_run:
        out["obs.trace_overhead_ratio"] = trace_overhead(recorder)
        out["obs.traced_ops"] = len(recorder.latencies(traced=True))
    return out


def trace_overhead(recorder: Recorder) -> float:
    traced = median(recorder.scaled_latencies(traced=True))
    untraced = median(recorder.scaled_latencies(traced=False))
    return traced / untraced if untraced > 0 else 0.0


def emit(
    workload: str,
    trace: bool,
    end_to_end: dict,
    per_layer: dict,
    recorder: Recorder,
    extra_correct: bool,
    notes: list[str],
) -> dict:
    """Print the human report and, last, the one-line JSON result."""
    spec = load_spec()
    failed = recorder.failed
    attempted = max(recorder.attempted, 1)
    print(f"# workload {workload} ({'traced' if trace else 'untraced'} run)")
    for line in notes:
        print(f"# {line}")
    for message in recorder.errors[:20]:
        print(f"# error: {message}")
    print(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    metrics = {}
    for kind, table in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        for item in spec[kind]:
            value = table.get(item["name"], 0.0)
            if isinstance(value, float) and not math.isfinite(value):
                value = 0.0
            print(f"{item['name']} {value:.6g} {item['unit']}")
            if kind == ("per_layer" if trace else "end_to_end"):
                metrics[item["name"]] = {"value": value, "unit": item["unit"]}
    result = {
        "correct": failed == 0 and extra_correct,
        "attempted": recorder.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    sys.stdout.flush()
    print(json.dumps(result))
    sys.stdout.flush()
    return result


def remove_tree(path: Path) -> None:
    """Delete a directory the benchmark created under ``OUT_DIR``."""
    if not path.exists():
        return
    if OUT_DIR not in path.resolve().parents:
        raise ValueError(f"refusing to delete {path}: outside {OUT_DIR}")
    for child in sorted(path.rglob("*"), key=lambda p: len(p.parts), reverse=True):
        if child.is_dir():
            child.rmdir()
        else:
            child.unlink()
    path.rmdir()
