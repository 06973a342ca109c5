"""``serve``: an open loop of plan reads and statistics writes.

One ``repro serve`` process (default configuration: guided search,
per-tenant sqlite statistics stores) serves a tenant population larger
than its resident-tenant cap, drawn Zipf-skewed.  Reads ask for one of
four flows at one of two scales with ``top_k`` 1-3; most hit the plan
cache, while the tail evicts and re-plans cold tenants.  Writes ingest a
perturbed runtime observation into the tenant's store from this process,
so the tenant's next read syncs, invalidates and re-plans.

The load runs at a few fixed rates, each op timed from the moment it was
due, and then for one more step back to back: that saturation step
replays the whole schedule a fixed number of times and measures how many
ops per second the server completes.  Two threads share the load, each
over its own connection: at the fixed rates the schedule is split by
tenant, so a tenant's ops stay in order; in the saturation step both
take the next op of the replay.  The main thread takes the host clock's
samples in the fixed steps' idle gaps.

Checks: every ok response must equal the first one served for its
(tenant, request, statistics fingerprint); responses for a tenant's
initial statistics must match the golden digest; no plan may be served
across tenants.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import os
import random
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from benchlib import OUT_DIR, OpRecord, Recorder, digest, load_golden, matches
from benchlib import median, proc_peak_rss_mb, ratio, remove_tree, self_peak_rss_mb
from benchlib import tail

from repro.core.udf import AnnotationMode
from repro.engine import Engine
from repro.feedback import ExecutionObservation, ObservationCollector, OpObservation
from repro.feedback import StatisticsStore
from repro.optimizer import Optimizer
from repro.serve import spawn_server, view_fingerprint
from repro.workloads import ALL_WORKLOADS

FLOWS = ("tpch_q7", "tpch_q15", "clickstream", "textmining")
SCALES = (1.0, 2.0)
TOP_KS = (1, 2, 3)
REQUESTS = [(f, s, k) for f in FLOWS for s in SCALES for k in TOP_KS]
#: Tenant population, half again the 64 tenants the server keeps resident
#: by default, so the least popular tenants are evicted and re-planned.
#: The size and the skew are assumptions, not taken from a measured
#: trace (see README).
TENANTS = {"full": 96, "tiny": 6}
#: Zipf exponent of tenant popularity.
TENANT_ZIPF = 1.1
#: A write makes the tenant's next read of each request re-plan; at 1%
#: most reads still hit the plan cache (at 3% fewer than half did).
WRITE_SHARE = 0.01
#: Offered load of the open-loop steps (ops/s): about a seventh and a
#: third of the 85-140 ops/s the saturation step measured on a 2-vCPU
#: host.  Each step lasts ``seconds / (len(steps) + 1)``.
RATE_STEPS = {"full": (15.0, 30.0), "tiny": (20.0,)}
#: Whole passes over the schedule the saturation step replays: a fixed
#: amount of work, not a fixed time, so every run replays the same writes
#: and reads.  Four passes of a 20 s run's schedule take about 10 s on a
#: 2-vCPU host, long enough to average over the server's garbage
#: collections and background re-plans.
SATURATION_PASSES = 4
#: A rate step is sustained when its tail latency stays within this limit
#: and its last tenth of ops started within it of their due time.
LATENCY_LIMIT_S = 0.25
#: Extra set-ups ``run.py`` measures in child processes for ``setup_s``.
SETUP_PROBES = 2
#: A host clock sample is taken only when no op of either thread is due
#: within this many seconds.
QUIET_S = 0.02
COUNTERS = (
    "serve.invalidations",
    "serve.tenant_evictions",
    "serve.background_replans",
    "serve.rejected",
    "serve.cache_cross_tenant_hits",
)


def tenant_name(rank: int) -> str:
    return f"t{rank:03d}"


def capture_observations() -> tuple[list[ExecutionObservation], float]:
    """One real execution per flow, observed by ``ObservationCollector``.

    Source observations are dropped: they pin row counts to one scale,
    and the server refuses a store learned on another scale's data.
    """
    out = []
    datagen = 0.0
    for flow in FLOWS:
        t0 = time.perf_counter()
        w = ALL_WORKLOADS[flow]()
        datagen += time.perf_counter() - t0
        result = Optimizer(
            w.catalog, w.hints, AnnotationMode.SCA, w.params, search="guided"
        ).optimize(w.plan)
        collector = ObservationCollector()
        Engine(w.params, w.true_costs, collector=collector).execute(
            result.best.physical, w.data
        )
        seen = collector.executions[-1]
        ops = tuple(op for op in seen.ops if op.kind != "source")
        out.append(ExecutionObservation(seen.plan_key, seen.seconds, ops, partial=True))
    return out, datagen


def perturbed(base: ExecutionObservation, rng: random.Random) -> ExecutionObservation:
    """A new observation of the same plan: every count moves, so the
    tenant's estimator view (and statistics fingerprint) changes."""
    ops = []
    for op in base.ops:
        rows = max(1, round(op.rows_out * rng.uniform(0.5, 2.0)))
        calls = max(1, round(op.udf_calls * rng.uniform(0.8, 1.25)))
        ops.append(
            OpObservation(
                key=op.key,
                op_name=op.op_name,
                kind=op.kind,
                rows_in=op.rows_in,
                rows_out=rows,
                udf_calls=calls,
                cpu_per_call=op.cpu_per_call * rng.uniform(0.8, 1.25),
                disk_bytes=op.disk_bytes,
            )
        )
    return ExecutionObservation(base.plan_key, base.seconds, tuple(ops), partial=True)


def seed_store(path, rank: int) -> str:
    """Give a tenant a store of its own; returns its fingerprint.

    The salt names an operator no flow contains, so every tenant starts
    with a distinct fingerprint but the same plans.
    """
    store = StatisticsStore.open(path)
    try:
        store.ingest(
            ExecutionObservation(
                plan_key=f"salt_{rank}",
                seconds=1.0,
                ops=(
                    OpObservation(
                        key=f"salt_{rank}",
                        op_name=f"salt_{rank}",
                        kind="map",
                        rows_in=rank + 1,
                        rows_out=rank + 1,
                        udf_calls=rank + 1,
                        cpu_per_call=1e-6,
                        disk_bytes=0.0,
                    ),
                ),
            )
        )
        return view_fingerprint(store.estimator_view())
    finally:
        store.close()


def served(response: dict) -> dict:
    """What the golden digest pins of a plan response."""
    return {
        "signature": response["signature"],
        "physical": digest(response["physical"]),
        "costs": [r["cost"] for r in response["ranked"]],
    }


# -- state ----------------------------------------------------------------------


@dataclass
class Op:
    index: int
    due: float  # seconds after the run starts
    step: int
    tenant: int
    read: tuple | None  # (flow, scale, top_k)
    write: ExecutionObservation | None


@dataclass
class State:
    ctx: object
    work: object
    tenants: int
    golden: dict
    observations: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)  # tenant -> initial
    first: dict = field(default_factory=dict)
    server: object = None
    clients: list = field(default_factory=list)
    datagen_s: float = 0.0
    start_s: float = 0.0
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    server_rss_mb: float = 0.0
    ops: list = field(default_factory=list)  # the open-loop schedule
    dues: list = field(default_factory=list)  # every op's due time, sorted
    origin: float = 0.0  # perf_counter() at which the schedule starts
    steps: list = field(default_factory=list)  # (rate, start, end)
    saturation: float = 0.0  # when the saturation step starts
    replay: list = field(default_factory=list)  # the saturation step's ops
    pending: object = None  # iterator over ``replay`` the threads share
    notes: list[str] = field(default_factory=list)
    setup_ok: bool = True
    doctored: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


def zipf(n: int, exponent: float) -> list[float]:
    return [1.0 / (r + 1) ** exponent for r in range(n)]


def quantize(total: int, weights: list[float]) -> list[int]:
    """Whole counts proportional to ``weights`` summing to ``total``."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def spread_out(items: list[tuple], rng: random.Random) -> list[tuple]:
    """Order ``(tenant, ...)`` items so each tenant's are spread evenly
    over the run (jittered), last first: a tenant's ``j``-th of ``n``
    items lands near ``j / n`` of the way through.  Seeded shuffles would
    bunch a rare tenant's reads, and with them its cold re-plans."""
    seen: dict = defaultdict(int)
    totals: dict = defaultdict(int)
    for item in items:
        totals[item[0]] += 1
    keyed = []
    for item in items:
        j = seen[item[0]]
        seen[item[0]] += 1
        keyed.append(((j + rng.random()) / totals[item[0]], item))
    keyed.sort(key=lambda pair: pair[0], reverse=True)
    return [item for _, item in keyed]


def build_schedule(seed: int, tenants: int, observations, steps, span: float):
    """The run's ops at their due times.

    The mix is fixed by the run length: reads per tenant follow a Zipf
    law, and each tenant's reads cover the requests evenly; the remainder
    is dealt from one seeded cycle of the requests, so the rare tenants'
    reads (mostly cold re-plans, whose cost differs 20x between flows)
    cover the requests evenly too.  Every ``1 / WRITE_SHARE``-th op is a
    write.  Each
    tenant's reads and writes are spread evenly over the run; the seed
    jitters the order.  A write's perturbation is fixed by its place, not
    the seed: how much re-planning a write causes depends on the
    statistics it leaves, so every run's writes leave the same ones.
    """
    rng = random.Random(seed)
    counts = [max(1, round(rate * span)) for rate in steps]
    total = sum(counts)
    writes = max(1, round(total * WRITE_SHARE))
    reads = []
    deck = itertools.cycle(rng.sample(REQUESTS, len(REQUESTS)))
    for tenant, n in enumerate(quantize(total - writes, zipf(tenants, TENANT_ZIPF))):
        whole, rest = divmod(n, len(REQUESTS))
        mine = REQUESTS * whole + list(itertools.islice(deck, rest))
        rng.shuffle(mine)
        reads += [(tenant, request) for request in mine]
    reads = spread_out(reads, rng)
    writers = [
        (t, None)
        for t, n in enumerate(quantize(writes, zipf(tenants, TENANT_ZIPF)))
        for _ in range(n)
    ]
    writers = [t for t, _ in spread_out(writers, rng)]
    ops = []
    for step, (rate, count) in enumerate(zip(steps, counts)):
        for i in range(count):
            index = len(ops)
            due = step * span + i / rate
            if (index + 1) * writes // total > index * writes // total:
                base = observations[len(writers) % len(observations)]
                write = perturbed(base, random.Random(f"write/{index}"))
                ops.append(Op(index, due, step, writers.pop(), None, write))
            else:
                tenant, request = reads.pop()
                ops.append(Op(index, due, step, tenant, request, None))
    return ops


def build_replay(ops: list[Op], step: int, passes: int) -> list[Op]:
    """``passes`` whole passes over the schedule; each write is perturbed
    anew (fixed by its place), so it changes the tenant's statistics."""
    replay = []
    for n in range(passes):
        for op in ops:
            replay.append(
                dataclasses.replace(
                    op,
                    index=len(ops) + len(replay),
                    step=step,
                    write=op.write
                    and perturbed(op.write, random.Random(f"write/{n}/{op.index}")),
                )
            )
    return replay


def setup(ctx) -> State:
    work = OUT_DIR / f"serve-{os.getpid()}"
    remove_tree(work)
    stats = work / "stats"
    stats.mkdir(parents=True)
    state = State(
        ctx=ctx, work=work, tenants=TENANTS[ctx.size], golden=load_golden().get("serve", {})
    )
    try:
        state.observations, state.datagen_s = capture_observations()
        for rank in range(state.tenants):
            name = tenant_name(rank)
            state.fingerprints[name] = seed_store(stats / f"{name}.sqlite", rank)
        t0 = time.perf_counter()
        state.server = spawn_server(["--stats-dir", str(stats)])
        state.start_s = time.perf_counter() - t0
        state.clients = [state.server.connect(), state.server.connect()]
        client = state.clients[0]
        for flow in FLOWS:
            for scale in SCALES:
                client.plan(flow, tenant="warmup", scale=scale, top_k=max(TOP_KS))
        steps = RATE_STEPS[ctx.size]
        span = ctx.seconds / (len(steps) + 1)
        state.ops = build_schedule(
            ctx.seed, state.tenants, state.observations, steps, span
        )
        state.dues = [op.due for op in state.ops]
        state.steps = [
            (rate, i * span, (i + 1) * span) for i, rate in enumerate(steps)
        ]
        state.saturation = len(steps) * span
        state.replay = build_replay(state.ops, len(steps), SATURATION_PASSES)
        # Every read of the run once, least popular tenants first, so the
        # run starts with a warm cache and the popular tenants resident.
        primed = sorted({(op.tenant, op.read) for op in state.ops if op.read}, reverse=True)
        for rank, read in primed:
            tenant = tenant_name(rank)
            flow, scale, top_k = read
            response = client.plan(flow, tenant=tenant, scale=scale, top_k=top_k)
            if not check_read(state, tenant, read, response):
                state.setup_ok = False
                state.notes.append(f"priming read {tenant} {read} wrong")
        state.before = client.metrics()["counters"]
    except BaseException:
        teardown(state)
        raise
    return state


def check_read(state: State, tenant: str, read: tuple, response: dict) -> bool:
    flow, scale, top_k = read
    got = served(response)
    fingerprint = response["fingerprint"]
    exact = (
        response["signature"],
        response["physical"],
        tuple(repr(r["cost"]) for r in response["ranked"]),
        repr(response["cost"]),
    )
    with state.lock:
        first = state.first.setdefault((tenant, read, fingerprint), exact)
    ok = first == exact and response["cache"] in ("hit", "miss")
    ok = ok and len(got["costs"]) == top_k
    if fingerprint == state.fingerprints.get(tenant):
        want = state.golden.get(f"{flow}@{scale:g}")
        ok = ok and want is not None and matches(
            {**want, "costs": want["costs"][:top_k]}, got
        )
    return ok


# -- the open loop ----------------------------------------------------------------


def do_read(state, client, op, tenant, tracer) -> tuple[bool, dict]:
    flow, scale, top_k = op.read
    with tracer.span("serve.plan", category="serve", op=op.index) as span:
        sent = time.perf_counter()
        response = client.plan(flow, tenant=tenant, scale=scale, top_k=top_k)
        rtt = time.perf_counter() - sent
        span.set(cache=response["cache"])
    with tracer.span("check", category="check", op=op.index):
        if (
            state.ctx.inject == "doctor-cost"
            and response["fingerprint"] == state.fingerprints[tenant]
        ):
            with state.lock:
                doctor = not state.doctored
                state.doctored = True
            if doctor:
                response["ranked"][0]["cost"] *= 1.0 + 1e-6
                response["cost"] = response["ranked"][0]["cost"]
        ok = check_read(state, tenant, op.read, response)
    attrs = {"cache": response["cache"], "rtt": rtt}
    if response["cache"] == "miss":
        attrs["planning"] = response["planning_seconds"]
    return ok, attrs


def do_write(state, stores, op, tenant, tracer) -> tuple[bool, dict]:
    store = stores.get(tenant)
    if store is None:
        store = stores[tenant] = StatisticsStore.open(
            state.work / "stats" / f"{tenant}.sqlite"
        )
    with tracer.span("feedback.ingest", category="feedback", op=op.index):
        t0 = time.perf_counter()
        store.ingest(op.write)
        spent = time.perf_counter() - t0
    return True, {"ingest": spent}


def run_op(state, recorder, client, stores, op, due, origin) -> None:
    """Send one op, check its answer, and record it timed from ``due``."""
    started = time.perf_counter()
    tracer = recorder.tracer_for(op.index)
    tenant = tenant_name(op.tenant)
    kind = "read" if op.read else "write"
    try:
        with tracer.span("op", category="loadgen", op=op.index, kind=kind):
            if op.read:
                ok, attrs = do_read(state, client, op, tenant, tracer)
            else:
                ok, attrs = do_write(state, stores, op, tenant, tracer)
    except Exception as exc:  # noqa: BLE001 - a failed op is a result
        recorder.error(f"{kind} {tenant}: {type(exc).__name__}: {exc}")
        ok, attrs = False, {}
    if not ok and attrs:
        recorder.error(f"{kind} {tenant} {op.read}: response differs")
    done = time.perf_counter()
    attrs.update(step=op.step, due=due - origin, late=started - due, done=done - origin)
    traced = tracer is not recorder.noop
    recorder.finish(tracer, OpRecord(kind, done - due, ok, traced, attrs, due))


def quiet(state, origin) -> bool:
    """No op of either thread is due within ``QUIET_S`` from now."""
    now = time.perf_counter() - origin
    nxt = bisect.bisect_left(state.dues, now)
    return nxt == len(state.dues) or state.dues[nxt] - now > QUIET_S


def worker(state, recorder, client, ops, origin, clock=None) -> None:
    """This thread's open-loop ops at their due times, then the
    saturation step: the next op of the replay, back to back, until none
    is left.  With a ``clock``, samples of the host's speed are taken in
    quiet gaps of the fixed steps."""
    stores: dict = {}
    try:
        for op in ops:
            due = origin + op.due
            if clock is not None and clock.due() and quiet(state, origin):
                clock.sample()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            run_op(state, recorder, client, stores, op, due, origin)
        delay = origin + state.saturation - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        while True:
            with state.lock:
                op = next(state.pending, None)
            if op is None:
                break
            run_op(state, recorder, client, stores, op, time.perf_counter(), origin)
    except Exception as exc:  # noqa: BLE001 - reported, its ops count as failed
        recorder.error(f"load thread: {type(exc).__name__}: {exc}")
    finally:
        for store in stores.values():
            store.close()


def run(state: State, recorder: Recorder) -> None:
    ops = state.ops
    parts = [[op for op in ops if op.tenant % 2 == k] for k in (0, 1)]
    state.pending = iter(state.replay)
    origin = state.origin = time.perf_counter() + 0.05
    helper = threading.Thread(
        target=worker,
        args=(state, recorder, state.clients[1], parts[1], origin),
    )
    helper.start()
    try:
        worker(state, recorder, state.clients[0], parts[0], origin, recorder.clock)
    finally:
        helper.join()
    # Every scheduled op must have been recorded; a lost one is a failure.
    scheduled = len(ops) + len(state.replay)
    recorder.missing(scheduled - recorder.attempted, "scheduled ops never completed")
    state.after = state.clients[0].metrics()["counters"]
    state.server_rss_mb = proc_peak_rss_mb(state.server.process.pid)


def achieved_rate(ops: list[OpRecord], begin: float) -> float:
    """Completed ops over the time from ``begin`` to the last completion."""
    finished = max((op.attrs["done"] for op in ops), default=begin)
    return ratio(sum(op.ok for op in ops), finished - begin)


def step_report(state: State, recorder: Recorder) -> tuple[float, float, list[str]]:
    """Per-step latency, the highest sustained rate, and the saturation
    step's throughput, each as achieved on the wall clock, and the
    saturation step's throughput at the reference speed.

    A fixed step is sustained when all its ops succeed, its tail latency
    meets ``LATENCY_LIMIT_S``, and its last tenth of ops (by due time)
    started within the limit of their due time, i.e. no backlog was left
    growing.
    """
    best = 0.0
    lines = []
    for step, (rate, begin, _) in enumerate(state.steps):
        ops = sorted(
            (op for op in recorder.ops if op.attrs.get("step") == step),
            key=lambda op: op.attrs["due"],
        )
        if not ops:
            continue
        lat = [op.latency for op in ops]
        value, level, count = tail(lat)
        last = ops[-max(1, len(ops) // 10):]
        sustained = (
            all(op.ok for op in ops)
            and value <= LATENCY_LIMIT_S
            and max(op.attrs["late"] for op in last) <= LATENCY_LIMIT_S
        )
        achieved = achieved_rate(ops, begin)
        if sustained:
            best = max(best, achieved)
        lines.append(
            f"step {rate:g}/s: {len(ops)} ops, achieved {achieved:.4g}/s, "
            f"p50 {median(lat):.4g} s, p{level:.2f} {value:.4g} s of {count}, "
            f"{'sustained' if sustained else 'NOT sustained'} "
            f"(limit {LATENCY_LIMIT_S} s)"
        )
    ops = [op for op in recorder.ops if op.attrs.get("step") == len(state.steps)]
    begin = state.saturation
    capacity = achieved_rate(ops, begin)
    # No sample can be taken inside the step without taking CPU from it,
    # and the few at its edges are a noisy guide, so the step's rate is
    # scaled by the factor of the whole run.
    factor = recorder.clock.factor()
    lat = [op.latency for op in ops]
    lines.append(
        f"saturation step: {len(ops)} ops back to back on both connections, "
        f"achieved {capacity:.4g}/s ({capacity / factor:.4g}/s at the reference "
        f"speed), p50 {median(lat):.4g} s"
    )
    return best, capacity / factor, lines


def measure(state: State, recorder: Recorder):
    # Latency is taken at the fixed rates, below saturation: the tail over
    # every fixed step, the median at the lowest.  Above it, a write's
    # burst of re-plans queues the ops behind it, and how many wait grows
    # with the host's slowness far more than in proportion (the median at
    # 30 ops/s read 2-6 ms on a 2-vCPU host, at 15 ops/s 1.8-2.5 ms).
    fixed = [
        op
        for op in recorder.ops
        if op.ok and not op.traced and op.attrs["step"] < len(state.steps)
    ]
    lat = [op.scaled(recorder.clock) for op in fixed]
    lowest = [op for op in fixed if op.attrs["step"] == 0]
    wall = [op.latency for op in lowest]
    value, level, count = tail(lat)
    max_rate, capacity, lines = step_report(state, recorder)
    end_to_end = {
        "ops_per_s": capacity,
        "latency_p50_s": median(op.scaled(recorder.clock) for op in lowest),
        "peak_rss_mb": self_peak_rss_mb() + state.server_rss_mb,
    }
    reads = [op for op in recorder.ops if op.kind == "read" and op.ok]
    hits = [op.attrs["rtt"] for op in reads if op.attrs["cache"] == "hit"]
    misses = [op.attrs["rtt"] for op in reads if op.attrs["cache"] == "miss"]
    ingests = [op.attrs["ingest"] for op in recorder.ops if op.kind == "write" and op.ok]
    delta = {
        name: state.after.get(name, 0) - state.before.get(name, 0) for name in COUNTERS
    }
    selfs = recorder.self_times()
    per_layer = {
        "latency_tail_s": value,
        "datagen.busy_s": state.datagen_s,
        "feedback.ingests": len(ingests),
        "feedback.ingest_busy_s": selfs.get("feedback", 0.0),
        "feedback.ingest_p50_s": median(ingests),
        "serve.start_s": state.start_s,
        "serve.requests": len(reads),
        "serve.busy_s": selfs.get("serve", 0.0),
        "serve.hit_ratio": ratio(len(hits), len(reads)),
        "serve.hit_p50_s": median(hits),
        "serve.miss_p50_s": median(misses),
        "serve.planning_busy_s": sum(op.attrs.get("planning", 0.0) for op in reads),
        **delta,
        "max_rate_per_s": max_rate,
        "loadgen.late_max_s": max(
            (op.attrs.get("late", 0.0) for op in recorder.ops), default=0.0
        ),
    }
    notes = list(state.notes) + lines
    notes.append(
        f"wall clock: p50 {median(wall):.4g} s at {state.steps[0][0]:g} ops/s"
    )
    notes.append(
        f"latency_tail_s is p{level:.2f} of {count} untraced ops at the fixed rates"
    )
    notes.append(f"server peak RSS {state.server_rss_mb:.1f} MB of peak_rss_mb")
    cross = delta["serve.cache_cross_tenant_hits"]
    if cross:
        notes.append(f"{cross} plans were served across tenants")
    return end_to_end, per_layer, notes, state.setup_ok and cross == 0


def teardown(state: State) -> None:
    for client in state.clients:
        client.close()
    state.clients = []
    if state.server is not None:
        state.server.stop()
        state.server = None
    remove_tree(state.work)


def compute_golden() -> dict:
    """Plans a tenant is served before any write, per flow and scale."""
    from benchlib import Context

    state = setup(
        Context(seed=0, seconds=1.0, size="tiny", inject="none", traced=False)
    )
    try:
        out = {}
        client = state.clients[0]
        for flow in FLOWS:
            for scale in SCALES:
                first = None
                for rank in range(state.tenants):
                    got = served(
                        client.plan(flow, tenant=tenant_name(rank), scale=scale, top_k=3)
                    )
                    first = first or got
                    if not matches(first, got):
                        raise AssertionError(f"{flow}@{scale:g}: tenants disagree")
                out[f"{flow}@{scale:g}"] = first
        return out
    finally:
        teardown(state)
