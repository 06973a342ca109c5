"""``plan``: closed-loop planning of newly submitted flows; nothing executes.

One caller submits flows back to back.  A flow is either a paper flow,
rebuilt around fresh copies of its UDF functions so static code analysis
runs as it would for new code, or a synthetic join chain (4-6 chained
joins under 1-2 pushable filters, manual annotations).  Each op plans one
flow cold, under eager or guided search, with one of ``VARIANTS`` fixed
perturbations of its hints; the seed orders the ops and offsets the
cycle of variants.
A reoptimize op then changes one hint of an earlier op's flow and
re-ranks over that op's memo.

Every op is checked against the golden digest, which holds the eager
ranking of each (flow, variant) and of its one-hint change: eager ops must
reproduce the whole ranking, guided ops its rank-1 plan, and reoptimize
ops the ranking a cold optimize gives.
"""

from __future__ import annotations

import dataclasses
import random
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

from benchlib import OpRecord, Recorder, count_optimization, digest, load_golden
from benchlib import matches, median, optimizer_layer, ratio, self_peak_rss_mb, tail

from repro.core import (
    AnnotationMode,
    Catalog,
    CoGroupOp,
    CrossOp,
    EmitBounds,
    FieldMap,
    FieldSet,
    MapOp,
    MatchOp,
    ReduceOp,
    Sink,
    Source,
    SourceStats,
    UdfProperties,
    binary_udf,
    map_udf,
    node,
    prefixed,
)
from repro.core.operators import UdfOperator
from repro.core.plan import Node, iter_nodes, signature_key
from repro.core.udf import Udf
from repro.optimizer import Hints, Optimizer
from repro.sca import analyze_udf
from repro.workloads import ALL_WORKLOADS

PAPER_FLOWS = {
    "full": ("tpch_q7", "tpch_q15", "clickstream", "textmining"),
    "tiny": ("tpch_q15", "clickstream"),
}
#: (joins, filters) of the synthetic join chains: 42 to 2002 alternatives.
CHAINS = {
    "full": ((4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2)),
    "tiny": ((4, 1),),
}
#: Flows planned under guided search only: eager planning of the
#: 2002-alternative chain takes over a second, a fifth of a round.
GUIDED_ONLY = ("chain6x2",)
VARIANTS = 8
SEARCHES = ("eager", "guided")
#: Leading ranks whose costs the golden digest holds.
TOP = 3
#: Seconds a round takes on a 2-vCPU host (2.2-2.5 s): a 20 s run holds
#: ``VARIANTS`` rounds, so each flow is planned under every variant once.
ROUND_S = 2.5
#: Extra set-ups ``run.py`` measures in child processes for ``setup_s``;
#: set-up takes about half a second, so a median of nine is cheap.
SETUP_PROBES = 8


# -- flows ----------------------------------------------------------------------


def _concat(left, right, out):
    out.emit(left.concat(right))


def _forward(rec, out):
    out.emit(rec.copy())


def build_chain(joins: int, filters: int):
    """A fact table joined through a chain of dimensions, under filters.

    Each join keys on the attribute the previous dimension added, so the
    joins keep their order while the fact-side filters commute with every
    join: the plan space grows with where each filter lands.
    """
    fact = prefixed("f", "k0", *[f"x{i}" for i in range(filters)])
    flow = node(Source("fact", fact))
    catalog = Catalog()
    catalog.add_source("fact", SourceStats(row_count=2_000_000))
    hints = {}
    cur = fact
    for j in range(filters):
        props = UdfProperties(
            reads=FieldSet.of((0, 1 + j)),
            branch_reads=FieldSet.of((0, 1 + j)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        flow = node(MapOp(f"sigma_{j}", map_udf(_forward, props), FieldMap(cur)), flow)
        hints[f"sigma_{j}"] = Hints(selectivity=0.1 + 0.2 * j, cpu_per_call=1.0 + 0.5 * j)
    key = 0
    for i in range(joins):
        dim = prefixed(f"d{i}", "k", "next")
        catalog.add_source(f"dim{i}", SourceStats(row_count=10_000 * (i + 1)))
        props = UdfProperties(
            reads=FieldSet.of((0, key), (1, 0)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        join = MatchOp(
            f"join_{i}",
            binary_udf(_concat, props),
            FieldMap(cur),
            FieldMap(dim),
            (key,),
            (0,),
        )
        flow = node(join, flow, node(Source(f"dim{i}", dim)))
        cur = cur + dim
        key = len(cur) - 1
        hints[f"join_{i}"] = Hints(cpu_per_call=1.0, distinct_keys=10_000 * (i + 1))
    return Node(Sink("chain_out"), (flow,)), catalog, hints


def _fresh_operator(op):
    """The same operator around a new copy of its UDF function."""
    if not isinstance(op, UdfOperator):
        return op
    fn = op.udf.fn
    if isinstance(fn, types.FunctionType):
        copy = types.FunctionType(
            fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__, fn.__closure__
        )
        copy.__kwdefaults__ = fn.__kwdefaults__
        fn = copy
    udf = Udf(fn, op.udf.param_kinds, op.udf.annotations, op.udf.name)
    if isinstance(op, MapOp):
        return MapOp(op.name, udf, op.input_map)
    if isinstance(op, ReduceOp):
        return ReduceOp(op.name, udf, op.input_map, op.key_positions)
    if isinstance(op, CrossOp):
        return CrossOp(op.name, udf, op.left_map, op.right_map)
    cls = MatchOp if isinstance(op, MatchOp) else CoGroupOp
    return cls(
        op.name, udf, op.left_map, op.right_map,
        op.left_key_positions, op.right_key_positions,
    )


def resubmit(root: Node) -> Node:
    """Rebuild a plan with new operator objects, as a client submitting it."""
    return Node(_fresh_operator(root.op), tuple(resubmit(c) for c in root.children))


def _scaled(value, factor):
    if value is None:
        return None
    if isinstance(value, int):
        return max(1, round(value * factor))
    return value * factor


def variant_hints(flow: str, base: dict, variant: int) -> dict:
    """Fixed perturbation ``variant`` of a flow's hints (0 = as authored)."""
    if variant == 0:
        return dict(base)
    rng = random.Random(f"{flow}/{variant}")
    out = {}
    for name in sorted(base):
        h = base[name]
        out[name] = Hints(
            selectivity=_scaled(h.selectivity, rng.uniform(0.7, 1.4)),
            cpu_per_call=h.cpu_per_call * rng.uniform(0.7, 1.4),
            distinct_keys=_scaled(h.distinct_keys, rng.uniform(0.7, 1.4)),
        )
    return out


def changed_hints(flow: str, hints: dict, variant: int) -> tuple[dict, str]:
    """The one-hint change a reoptimize op applies to a variant."""
    name = random.Random(f"{flow}/{variant}/change").choice(sorted(hints))
    h = hints[name]
    new = dataclasses.replace(
        h,
        cpu_per_call=h.cpu_per_call * 3.0,
        selectivity=None if h.selectivity is None else h.selectivity * 0.5,
    )
    return {**hints, name: new}, name


@dataclass
class Flow:
    name: str
    mode: AnnotationMode
    catalog: Catalog
    hints: dict
    params: object
    make_plan: object  # () -> a newly submitted plan

    def hints_for(self, variant: int, changed: bool = False) -> dict:
        hints = variant_hints(self.name, self.hints, variant)
        return changed_hints(self.name, hints, variant)[0] if changed else hints


def build_flows(size: str) -> tuple[dict[str, Flow], float]:
    flows = {}
    datagen = 0.0
    for name in PAPER_FLOWS[size]:
        t0 = time.perf_counter()
        w = ALL_WORKLOADS[name]()
        datagen += time.perf_counter() - t0
        flows[name] = Flow(
            name, AnnotationMode.SCA, w.catalog, w.hints, w.params,
            lambda plan=w.plan: resubmit(plan),
        )
    for joins, filters in CHAINS[size]:
        name = f"chain{joins}x{filters}"
        plan, catalog, hints = build_chain(joins, filters)
        flows[name] = Flow(
            name, AnnotationMode.MANUAL, catalog, hints, None,
            lambda j=joins, f=filters: build_chain(j, f)[0],
        )
    return flows, datagen


def golden_entry(result) -> dict:
    """What the golden digest pins of one eager ranking: the rank-1 plan,
    and the leading costs to a tolerance (plans of equal cost may swap
    ranks between processes, so only rank 1 is pinned by name)."""
    return {
        "plans": result.plan_count,
        "signature": signature_key(result.best.body),
        "physical": digest(result.best.physical.describe()),
        "costs": [p.cost for p in result.ranked[:TOP]],
    }


def exact_rank1(result) -> tuple:
    best = result.best
    return signature_key(best.body), repr(best.cost), best.physical.describe()


def exact_ranked(result) -> tuple:
    return tuple((signature_key(p.body), repr(p.cost)) for p in result.ranked)


def golden_key(flow: str, variant: int, changed: bool) -> str:
    return f"{flow}#{variant}{'+chg' if changed else ''}"


# -- the loop -------------------------------------------------------------------


@dataclass
class State:
    ctx: object
    flows: dict[str, Flow]
    golden: dict
    datagen_s: float
    notes: list[str] = field(default_factory=list)
    #: First exact rank-1 plan / eager ranking seen per golden key.
    first_rank1: dict = field(default_factory=dict)
    first_ranked: dict = field(default_factory=dict)


@dataclass
class Planned:
    """A cold op's plan, optimizer and memo, carried to its reoptimize op."""

    flow: Flow
    variant: int
    plan: Node
    optimizer: Optimizer
    memo: object


def setup(ctx) -> State:
    flows, datagen = build_flows(ctx.size)
    return State(ctx=ctx, flows=flows, golden=load_golden()["plan"], datagen_s=datagen)


def _analyze(plan: Node, tracer, op: int, counts: dict) -> None:
    """Static code analysis of every UDF, timed as its own layer."""
    udfs = [n.op.udf for n in iter_nodes(plan) if isinstance(n.op, UdfOperator)]
    with tracer.span("sca.analyze_udf", category="sca", op=op, udfs=len(udfs)):
        for udf in udfs:
            props = analyze_udf(udf.fn, udf.param_kinds)
            counts["sca.conservative"] += props.is_conservative()
    counts["sca.udfs"] += len(udfs)


def _check(state: "State", key: str, result, search: str, doctor: bool) -> bool:
    """Golden digest across processes; exact agreement within the run.

    Within one process every op of a (flow, variant, change) must give the
    bit-identical rank-1 plan (guided top-1 against eager rank-1,
    reoptimize against cold), and eager ops the bit-identical ranking.
    """
    want = state.golden.get(key)
    if want is None:
        return False
    got = golden_entry(result)
    if doctor:
        got["costs"][0] *= 1.0 + 1e-6
    if search == "guided":
        ok = matches({**want, "plans": got["plans"], "costs": want["costs"][:1]}, got)
    else:
        ok = matches(want, got)
        ranked = state.first_ranked.setdefault(key, exact_ranked(result))
        ok = ok and ranked == exact_ranked(result)
    rank1 = exact_rank1(result)
    return ok and state.first_rank1.setdefault(key, rank1) == rank1


def cold_op(state: State, flow: Flow, variant: int, search: str, tracer, op: int):
    counts: dict = defaultdict(float)
    with tracer.span("op", category="loadgen", op=op, flow=flow.name, search=search):
        t0 = time.perf_counter()
        plan = flow.make_plan()
        if flow.mode is AnnotationMode.SCA:
            _analyze(plan, tracer, op, counts)
        with tracer.span("optimizer.optimize", category="optimizer", op=op):
            optimizer = Optimizer(
                flow.catalog, flow.hints_for(variant), flow.mode, flow.params,
                search=search,
            )
            memo = optimizer.new_memo()
            result = optimizer.optimize(plan, memo=memo)
        latency = time.perf_counter() - t0
        with tracer.span("check", category="check", op=op):
            doctor = state.ctx.inject == "doctor-cost" and op == 0
            key = golden_key(flow.name, variant, False)
            ok = _check(state, key, result, search, doctor)
    count_optimization(result, counts)
    return t0, latency, ok, counts, Planned(flow, variant, plan, optimizer, memo)


def reopt_op(state: State, carried: Planned, tracer, op: int):
    flow = carried.flow
    search = carried.optimizer.search
    with tracer.span("op", category="loadgen", op=op, flow=flow.name, search=search):
        t0 = time.perf_counter()
        hints, name = changed_hints(
            flow.name, carried.optimizer.hints, carried.variant
        )
        with tracer.span("optimizer.reoptimize", category="optimizer", op=op):
            carried.optimizer.hints = hints
            result = carried.optimizer.reoptimize(carried.plan, carried.memo, [name])
        latency = time.perf_counter() - t0
        with tracer.span("check", category="check", op=op):
            key = golden_key(flow.name, carried.variant, True)
            ok = _check(state, key, result, search, False)
    counts: dict = defaultdict(float)
    counts["optimizer.reoptimize_s"] = latency
    count_optimization(result, counts)
    return t0, latency, ok, counts


def searches(name: str) -> tuple[str, ...]:
    return ("guided",) if name in GUIDED_ONLY else SEARCHES


def round_ops(state: State, rng: random.Random, round_no: int) -> list[tuple]:
    """One round: a cold op per flow and search, in seeded order, and one
    reoptimize op per flow placed after the cold op whose memo it carries
    (eager and guided alternate by round)."""
    names = list(state.flows)
    cold = [("cold", name, search) for name in names for search in searches(name)]
    rng.shuffle(cold)
    ops = list(cold)
    for i, name in enumerate(names):
        options = searches(name)
        search = options[(round_no + i) % len(options)]
        after = ops.index(("cold", name, search))
        ops.insert(rng.randint(after + 1, len(ops)), ("reopt", name, search))
    return ops


def variant_of(state: State, name: str, search: str, round_no: int) -> int:
    """Each flow cycles through the hint variants from a seeded offset, so
    every run plans the same mix of variants whatever its seed."""
    offset = list(state.flows).index(name) + (search == "guided") * VARIANTS // 2
    return (state.ctx.seed + round_no + offset) % VARIANTS


def run(state: State, recorder: Recorder) -> None:
    """A fixed number of rounds, about ``--seconds`` of work: every run
    plans the same flows and hint variants, whatever the host's speed."""
    rng = random.Random(state.ctx.seed)
    op = 0
    for round_no in range(max(1, round(state.ctx.seconds / ROUND_S))):
        carried: dict[tuple, Planned] = {}
        for kind, name, search in round_ops(state, rng, round_no):
            recorder.clock.tick()
            tracer = recorder.tracer_for(round_no)
            label = f"{kind} {name} {search}"
            try:
                if kind == "cold":
                    variant = variant_of(state, name, search, round_no)
                    begin, latency, ok, counts, planned = cold_op(
                        state, state.flows[name], variant, search, tracer, op
                    )
                    carried[(name, search)] = planned
                    label += f" #{variant}"
                else:
                    begin, latency, ok, counts = reopt_op(
                        state, carried.pop((name, search)), tracer, op
                    )
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                recorder.error(f"{label}: {type(exc).__name__}: {exc}")
                begin, latency, ok, counts = 0.0, 0.0, False, {}
            if not ok and counts:
                recorder.error(f"{label}: plan differs from golden")
            recorder.finish(
                tracer,
                OpRecord(kind, latency, ok, tracer is not recorder.noop, {}, begin),
                counts,
            )
            op += 1


def measure(state: State, recorder: Recorder):
    c = recorder.counts
    lat = recorder.scaled_latencies(traced=False)
    all_lat = recorder.scaled_latencies()
    wall = recorder.latencies(traced=False)
    value, level, count = tail(lat)
    end_to_end = {
        "ops_per_s": ratio(len(all_lat), sum(all_lat)),
        "latency_p50_s": median(lat),
        "peak_rss_mb": self_peak_rss_mb(),
    }
    selfs = recorder.self_times()
    per_layer = {
        "latency_tail_s": value,
        "datagen.busy_s": state.datagen_s,
        "sca.udfs": c["sca.udfs"],
        "sca.busy_s": selfs.get("sca", 0.0),
        "sca.conservative_ratio": ratio(c["sca.conservative"], c["sca.udfs"]),
        **optimizer_layer(c, selfs),
    }
    notes = list(state.notes)
    notes.append(
        f"wall clock: {ratio(len(wall), sum(wall)):.4g} ops/s, "
        f"p50 {median(wall):.4g} s (untraced ops)"
    )
    notes.append(f"latency_tail_s is p{level:.2f} of {count} untraced ops")
    return end_to_end, per_layer, notes, True


def teardown(state: State) -> None:
    pass


def compute_golden() -> dict:
    """Eager rankings of every (flow, variant), before and after its change."""
    flows, _ = build_flows("full")
    out = {}
    for flow in flows.values():
        for variant in range(VARIANTS):
            for changed in (False, True):
                optimizer = Optimizer(
                    flow.catalog, flow.hints_for(variant, changed), flow.mode,
                    flow.params,
                )
                result = optimizer.optimize(flow.make_plan())
                out[golden_key(flow.name, variant, changed)] = golden_entry(result)
    return out
