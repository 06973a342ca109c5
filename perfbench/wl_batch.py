"""``batch``: closed-loop optimize-and-execute jobs over the paper flows.

One submitter runs jobs back to back.  Each job builds a fresh
``Optimizer`` (SCA mode, eager search) and a fresh default ``Engine``,
optimizes one paper flow, and executes its rank-1 plan.  Jobs cycle
through the four flows at two datagen scales in rounds; the seed shuffles
each round, so every run measures the same job mix.  Data is generated in
set-up, where the implemented (unreordered) plan of every flow is also
evaluated by the reference interpreter: each job's output bag must equal
it, and its modeled outputs must match the golden digest.
"""

from __future__ import annotations

import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from benchlib import OpRecord, Recorder, bag_digest, count_optimization, digest
from benchlib import load_golden, matches, median, optimizer_layer, ratio
from benchlib import self_peak_rss_mb, tail

from repro.core.dataset import canonical_record
from repro.core.plan import signature_key
from repro.core.reference import evaluate, sink_projection
from repro.core.udf import AnnotationMode
from repro.engine import Engine
from repro.optimizer import Optimizer
from repro.workloads import ALL_WORKLOADS

FLOWS = ("tpch_q7", "tpch_q15", "clickstream", "textmining")
#: Datagen scale factors; tpch_q7 returns no rows at scale 1, so the
#: smaller scale is 2 and every check compares a non-empty result.
SCALES = {"full": (2.0, 4.0), "tiny": (2.0,)}
#: Decimal digits floats are rounded to when comparing against the
#: reference interpreter (reordering changes float summation order).
DIGITS = 6
#: Leading ranks whose costs the golden digest holds.
TOP = 3
#: Extra set-ups ``run.py`` measures in child processes for ``setup_s``.
SETUP_PROBES = 2


def job_key(flow: str, scale: float) -> str:
    return f"{flow}@{scale:g}"


def output_bag(records, wanted, digits: int | None) -> Counter:
    """Bag of output records projected on the sink's attributes."""
    bag: Counter = Counter()
    for record in records:
        row = {a: v for a, v in record.items() if wanted is None or a in wanted}
        if digits is not None:
            row = {
                a: round(v, digits) if isinstance(v, float) else v
                for a, v in row.items()
            }
        bag[canonical_record(row)] += 1
    return bag


def modeled_outputs(result, execution, wanted) -> dict:
    """What the golden digest pins of one job: its rank-1 plan, leading
    costs (to a tolerance; plans of equal cost may swap ranks between
    processes), modeled seconds, and output bag."""
    return {
        "plans": result.plan_count,
        "signature": signature_key(result.best.body),
        "physical": digest(result.best.physical.describe()),
        "costs": [p.cost for p in result.ranked[:TOP]],
        "modeled_seconds": repr(execution.report.seconds),
        "output": bag_digest(output_bag(execution.records, wanted, None)),
        "rows": len(execution.records),
    }


def exact_outputs(result, execution) -> tuple:
    """Every ranked cost and the modeled seconds, bit for bit: all jobs of
    one flow and scale in a run must agree on them exactly."""
    return (
        tuple((signature_key(p.body), repr(p.cost)) for p in result.ranked),
        repr(execution.report.seconds),
    )


@dataclass
class Job:
    key: str
    workload: object
    wanted: tuple | None
    reference: Counter
    golden: dict
    first: tuple | None = None  # exact outputs of this run's first job


@dataclass
class State:
    ctx: object
    jobs: dict[str, Job]
    datagen_s: float
    notes: list[str] = field(default_factory=list)
    setup_ok: bool = True


def build_jobs(size: str) -> tuple[dict[str, tuple], float]:
    """Generate every (flow, scale) workload; returns them and datagen time."""
    built = {}
    spent = 0.0
    for scale in SCALES[size]:
        for flow in FLOWS:
            t0 = time.perf_counter()
            workload = ALL_WORKLOADS[flow](scale_factor=scale)
            spent += time.perf_counter() - t0
            built[job_key(flow, scale)] = workload
    return built, spent


def setup(ctx) -> State:
    golden = load_golden()["batch"]
    built, datagen_s = build_jobs(ctx.size)
    state = State(ctx=ctx, jobs={}, datagen_s=datagen_s)
    for key, workload in built.items():
        wanted = sink_projection(workload.plan)
        reference = output_bag(evaluate(workload.plan, workload.data), wanted, DIGITS)
        entry = dict(golden.get(key, {}))
        if entry.pop("reference", None) != bag_digest(reference):
            state.setup_ok = False
            state.notes.append(f"reference output of {key} differs from golden")
        state.jobs[key] = Job(key, workload, wanted, reference, entry)
    return state


def run_job(job: Job, tracer, op: int, inject: bool) -> tuple[float, float, bool, dict]:
    w = job.workload
    with tracer.span("op", category="loadgen", op=op, job=job.key):
        t0 = time.perf_counter()
        with tracer.span("optimizer.optimize", category="optimizer", op=op):
            result = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params).optimize(
                w.plan
            )
        with tracer.span("engine.execute", category="engine", op=op):
            execution = Engine(w.params, w.true_costs).execute(
                result.best.physical, w.data
            )
        latency = time.perf_counter() - t0
        with tracer.span("check", category="check", op=op):
            if inject:
                execution.records.pop()
            exact = exact_outputs(result, execution)
            if job.first is None:
                job.first = exact
            ok = (
                output_bag(execution.records, job.wanted, DIGITS) == job.reference
                and matches(job.golden, modeled_outputs(result, execution, job.wanted))
                and exact == job.first
            )
    report = execution.report
    counts: dict = defaultdict(float)
    count_optimization(result, counts)
    counts.update({
        "engine.calls": 1,
        "engine.rows_scanned": report.rows_scanned,
        "engine.udf_calls": report.udf_calls,
    })
    return t0, latency, ok, counts


def run(state: State, recorder: Recorder) -> None:
    """Whole rounds of every job, until ``--seconds`` have elapsed.

    Each round draws every (flow, scale) job once, in an order the seed
    shuffles, so every run measures the same job mix.  The host clock
    takes its samples between jobs.
    """
    rng = random.Random(state.ctx.seed)
    keys = list(state.jobs)
    op = round_no = 0
    start = time.perf_counter()
    while op == 0 or time.perf_counter() - start < state.ctx.seconds:
        rng.shuffle(keys)
        for key in keys:
            recorder.clock.tick()
            tracer = recorder.tracer_for(round_no)
            inject = state.ctx.inject == "drop-record" and op == 0
            try:
                begin, latency, ok, counts = run_job(
                    state.jobs[key], tracer, op, inject
                )
            except Exception as exc:  # noqa: BLE001 - a failed job is a result
                recorder.error(f"{key}: {type(exc).__name__}: {exc}")
                begin, latency, ok, counts = 0.0, 0.0, False, {}
            if not ok and counts:
                recorder.error(f"{key}: output differs from reference or golden")
            traced = tracer is not recorder.noop
            record = OpRecord("job", latency, ok, traced, {"key": key}, begin)
            if counts:
                counts["busy_s"] = record.scaled(recorder.clock)
            recorder.finish(tracer, record, counts)
            op += 1
        round_no += 1


def measure(state: State, recorder: Recorder):
    c = recorder.counts
    lat = recorder.scaled_latencies(traced=False)
    busy = c["busy_s"]  # at the reference speed
    value, level, count = tail(lat)
    end_to_end = {
        "ops_per_s": ratio(c["engine.calls"], busy),
        "latency_p50_s": median(lat),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    wall = recorder.latencies(traced=False)
    selfs = recorder.self_times()
    per_layer = {
        "latency_tail_s": value,
        "datagen.busy_s": state.datagen_s,
        **optimizer_layer(c, selfs),
        "engine.calls": c["engine.calls"],
        "engine.busy_s": selfs.get("engine", 0.0),
        "engine.rows_scanned": c["engine.rows_scanned"],
        "engine.udf_calls": c["engine.udf_calls"],
        "engine.rows_per_s": ratio(c["engine.rows_scanned"], selfs.get("engine", 0.0)),
        "rows_per_s": ratio(c["engine.rows_scanned"], busy),
    }
    notes = list(state.notes)
    notes.append(
        f"wall clock: {ratio(len(wall), sum(wall)):.4g} jobs/s, "
        f"p50 {median(wall):.4g} s (untraced jobs)"
    )
    notes.append(f"latency_tail_s is p{level:.2f} of {count} untraced jobs")
    notes.append(
        "records compared per job: "
        + ", ".join(f"{k}={sum(j.reference.values())}" for k, j in state.jobs.items())
    )
    return end_to_end, per_layer, notes, state.setup_ok


def teardown(state: State) -> None:
    pass


def compute_golden() -> dict:
    """Digests of every job's modeled outputs (``golden.py`` writes them)."""
    built, _ = build_jobs("full")
    out = {}
    for key, w in built.items():
        wanted = sink_projection(w.plan)
        result = Optimizer(w.catalog, w.hints, AnnotationMode.SCA, w.params).optimize(
            w.plan
        )
        execution = Engine(w.params, w.true_costs).execute(result.best.physical, w.data)
        reference = output_bag(evaluate(w.plan, w.data), wanted, DIGITS)
        if output_bag(execution.records, wanted, DIGITS) != reference:
            raise AssertionError(f"{key}: rank-1 output differs from the reference")
        if not reference:
            raise AssertionError(f"{key}: empty reference output")
        out[key] = {"reference": bag_digest(reference)}
        out[key].update(modeled_outputs(result, execution, wanted))
    return out
