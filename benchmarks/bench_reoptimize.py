"""Re-optimization cost: dirty-spine re-costing of the incremental Memo.

After a single-hint change on the Q7 plan space (442 alternatives, ~1.4k
distinct sub-plans), invalidating only the spine above the changed
operator and re-optimizing over the surviving memo is several times
faster than a full rebuild — while producing bit-identical estimates,
costs, and rankings.  This is the per-round cost of the adaptive feedback
loop.

The module also hosts :func:`build_stress`, the join-heavy stress plan
space (7 chained joins x 2 pushable filters -> 6864 alternatives) that
``bench_plan_latency`` plans.

Results are written to ``benchmarks/results/reoptimize.json``.
"""

import json
import statistics
import time

from conftest import write_result

from repro.core import (
    AnnotationMode,
    Catalog,
    EmitBounds,
    FieldMap,
    FieldSet,
    MapOp,
    MatchOp,
    Sink,
    Source,
    SourceStats,
    UdfProperties,
    binary_udf,
    map_udf,
    node,
    prefixed,
)
from repro.core.plan import Node, signature
from repro.optimizer import Hints, Optimizer

REPS = 5


def assert_plans_identical(got, want):
    assert got.plan_count == want.plan_count
    for g, w in zip(got.ranked, want.ranked):
        assert g.rank == w.rank
        assert signature(g.body) == signature(w.body)
        assert g.cost == w.cost  # exact float equality
        assert g.physical.describe() == w.physical.describe()


# -- join-heavy stress plan space ---------------------------------------------


def _concat_udf(left, right, out):
    out.emit(left.concat(right))


def _passthrough(rec, out):
    out.emit(rec.copy())


def build_stress(joins=7, filters=2):
    """A chained-join starflake: joins cannot commute with each other
    (each keys on the previous dimension's output attribute), while the
    fact-side filters commute freely and push through the whole chain —
    a deep plan space whose per-entry costing is dominated by the
    binary branch-and-bound, i.e. compute-bound costing."""
    fact_attrs = prefixed("f", "k0", *[f"x{i}" for i in range(filters)])
    flow = node(Source("fact", fact_attrs))
    cur = fact_attrs
    catalog = Catalog()
    catalog.add_source("fact", SourceStats(row_count=2_000_000))
    hints = {}
    for j in range(filters):
        props = UdfProperties(
            reads=FieldSet.of((0, 1 + j)),
            branch_reads=FieldSet.of((0, 1 + j)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        flow = node(
            MapOp(f"sigma_{j}", map_udf(_passthrough, props), FieldMap(cur)),
            flow,
        )
        hints[f"sigma_{j}"] = Hints(
            selectivity=0.1 + 0.2 * j, cpu_per_call=1.0 + 0.5 * j
        )
    key_pos = 0
    for i in range(joins):
        dim_attrs = prefixed(f"d{i}", "k", "next")
        catalog.add_source(f"dim{i}", SourceStats(row_count=10_000 * (i + 1)))
        props = UdfProperties(
            reads=FieldSet.of((0, key_pos), (1, 0)),
            emit_bounds=EmitBounds.at_most_one(),
        )
        join = MatchOp(
            f"join_{i}",
            binary_udf(_concat_udf, props),
            FieldMap(cur),
            FieldMap(dim_attrs),
            (key_pos,),
            (0,),
        )
        flow = node(join, flow, node(Source(f"dim{i}", dim_attrs)))
        cur = cur + dim_attrs
        key_pos = len(cur) - 1
        hints[f"join_{i}"] = Hints(
            cpu_per_call=1.0, distinct_keys=10_000 * (i + 1)
        )
    return Node(Sink("sink_stress"), (flow,)), catalog, hints


# -- measurements -------------------------------------------------------------


def measure_reoptimize(workload):
    """Single-hint re-optimization: dirty spine vs full rebuild (Q7)."""
    changes = {
        "gamma_revenue": Hints(distinct_keys=64, cpu_per_call=2.0),
        "sigma_nation_pair": Hints(selectivity=0.02, cpu_per_call=1.5),
    }
    report = {}
    for name, hint in changes.items():
        new_hints = {**workload.hints, name: hint}
        rebuilds, respines = [], []
        evicted = entries = 0
        for _ in range(REPS):
            optimizer = Optimizer(
                workload.catalog, workload.hints, AnnotationMode.SCA,
                workload.params,
            )
            memo = optimizer.new_memo()
            optimizer.optimize(workload.plan, memo=memo)
            entries = len(memo)
            optimizer.hints = new_hints
            # full rebuild: what a memo-less optimizer does per change
            t0 = time.perf_counter()
            full = Optimizer(
                workload.catalog, new_hints, AnnotationMode.SCA, workload.params
            ).optimize(workload.plan)
            rebuilds.append(time.perf_counter() - t0)
            # dirty spine: invalidate + re-cost over the surviving memo
            t0 = time.perf_counter()
            evicted = memo.invalidate({name})
            incremental = optimizer.optimize(workload.plan, memo=memo)
            respines.append(time.perf_counter() - t0)
            assert_plans_identical(incremental, full)
        rebuild = statistics.median(rebuilds)
        respine = statistics.median(respines)
        report[name] = {
            "memo_entries": entries,
            "entries_evicted": evicted,
            "full_rebuild_seconds": rebuild,
            "dirty_spine_seconds": respine,
            "speedup": rebuild / respine if respine else float("inf"),
        }
    return report


def run_bench(q7_workload):
    return {"reoptimize_q7": measure_reoptimize(q7_workload)}


def test_reoptimize_dirty_spine(benchmark, q7_workload, results_dir):
    report = benchmark.pedantic(
        run_bench, args=(q7_workload,), rounds=1, iterations=1
    )
    write_result(
        results_dir,
        "reoptimize.json",
        json.dumps(report, indent=2, sort_keys=True),
    )

    spine = report["reoptimize_q7"]["gamma_revenue"]
    # The dirty spine above the changed reduce covers under half of the
    # memo; re-costing it must be several times cheaper than a rebuild
    # (measured ~6x on the dev box; gate conservatively for CI noise).
    assert spine["entries_evicted"] < spine["memo_entries"]
    assert spine["speedup"] > 3.0
    for stats in report["reoptimize_q7"].values():
        assert stats["dirty_spine_seconds"] < stats["full_rebuild_seconds"]
