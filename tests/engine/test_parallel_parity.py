"""The partition-parallel execution backend must be bit-identical to
serial execution.

``Engine(engine_jobs=N)`` runs each pipeline stage's partitions across a
fork-based worker pool; workers ship back records and primitive counts,
and every float of metric arithmetic happens in the parent in partition
order.  These tests pin that, across all four paper workloads,
``engine_jobs`` in {1, 2, 4}, both cache modes, and staged execution
with observation collection, the records, per-op :class:`OpMetrics`, and
modeled seconds are *exactly* equal to the serial engine — plus the
worker-error protocol, the serial fallback on fork-less platforms, and
the breaker->ship scatter's equivalence to ``repartition_by_key``.
"""

import pytest

from repro.core import (
    AnnotationMode,
    Catalog,
    FieldMap,
    MapOp,
    ReduceOp,
    Source,
    SourceStats,
    attrs,
    chain,
    map_udf,
    reduce_udf,
)
from repro.core.errors import ExecutionError
from repro.datagen import ClickScale, CorpusScale, TpchScale
from repro.engine import Engine, repartition_by_key, round_robin
from repro.engine import parallel as engine_parallel
from repro.feedback import ObservationCollector
from repro.optimizer import (
    CardinalityEstimator,
    CostParams,
    Optimizer,
    PlanContext,
    optimize_physical,
)
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

SMALL_TPCH = TpchScale(suppliers=40, customers=80, orders=400)

BUILDERS = {
    "tpch_q7": lambda: build_q7(SMALL_TPCH),
    "tpch_q15": lambda: build_q15(SMALL_TPCH),
    "clickstream": lambda: build_clickstream(ClickScale(sessions=250)),
    "textmining": lambda: build_textmining(CorpusScale(documents=250)),
}

JOBS = [1, 2, 4]


@pytest.fixture(scope="module")
def optimized():
    """workload name -> (workload, rank-picked plans), optimized once."""
    out = {}
    for name, build in BUILDERS.items():
        workload = build()
        result = Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
        ).optimize(workload.plan)
        out[name] = (workload, result.picks(3))
    return out


class TestParallelParity:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "reuse"])
    def test_bit_identical_across_engine_jobs(self, optimized, name, reuse):
        workload, picks = optimized[name]
        engines = {
            jobs: Engine(
                workload.params,
                workload.true_costs,
                reuse_subtree_results=reuse,
                engine_jobs=jobs,
            )
            for jobs in JOBS
        }
        for plan in picks:
            want = engines[1].execute(plan.physical, workload.data)
            for jobs in JOBS[1:]:
                got = engines[jobs].execute(plan.physical, workload.data)
                assert got.records == want.records
                assert got.report.per_op == want.report.per_op  # exact OpMetrics
                assert got.seconds == want.seconds  # bit-identical, not approx

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_staged_execution_with_observation_collection(self, optimized, name):
        """execute_staged + ObservationCollector compose with the pool:
        records, metrics, modeled seconds, measured stage count, and the
        collected observations all match the serial staged run."""
        workload, picks = optimized[name]
        serial_collector = ObservationCollector()
        pooled_collector = ObservationCollector()
        serial = Engine(
            workload.params, workload.true_costs, collector=serial_collector
        )
        pooled = Engine(
            workload.params,
            workload.true_costs,
            collector=pooled_collector,
            engine_jobs=2,
        )
        plan = picks[0].physical
        want = serial.execute_staged(plan, workload.data)
        got = pooled.execute_staged(plan, workload.data)
        assert got.records == want.records
        assert got.report.per_op == want.report.per_op
        assert got.seconds == want.seconds
        assert serial_collector.executions and pooled_collector.executions
        for obs_got, obs_want in zip(
            pooled_collector.executions, serial_collector.executions
        ):
            # run ids are process-unique counters; everything observable
            # about the execution must match.
            assert obs_got.plan_key == obs_want.plan_key
            assert obs_got.seconds == obs_want.seconds
            assert obs_got.ops == obs_want.ops
            assert obs_got.partial == obs_want.partial
        # Wall-clock per stage is measured on both engines, one entry per
        # pipeline stage that ran.
        assert len(pooled.last_stage_walls) == len(serial.last_stage_walls)
        assert all(wall >= 0.0 for _, wall in pooled.last_stage_walls)

    def test_cache_replay_identical_under_pool(self, optimized):
        workload, picks = optimized["tpch_q15"]
        engine = Engine(
            workload.params,
            workload.true_costs,
            reuse_subtree_results=True,
            engine_jobs=2,
        )
        first = engine.execute(picks[0].physical, workload.data)
        assert engine._subtree_cache  # the run populated the cache
        second = engine.execute(picks[0].physical, workload.data)
        assert second.records == first.records
        assert second.report.per_op == first.report.per_op
        assert second.seconds == first.seconds


class TestScatterStreaming:
    def test_scatter_matches_repartition_by_key(self):
        """The worker-side hash-scatter plus origin-order assembly must
        reproduce ``repartition_by_key`` exactly: same target partitions,
        same row order, same moved count."""
        key = attrs("s.k")
        rows = [{key[0]: i % 13} for i in range(997)]
        degree = 8
        parts = round_robin(rows, degree)
        want, want_moved = repartition_by_key(parts, key, degree)
        spec = (key, degree)
        packed = [
            engine_parallel.scatter_partition(p, origin, spec)
            for origin, p in enumerate(parts)
        ]
        scattered = engine_parallel.assemble(packed, spec)
        assert scattered.parts == want
        assert scattered.moved == want_moved
        assert scattered.rows == len(rows)
        assert len(scattered.pre_bytes) == degree

    def test_scatter_fires_inside_parallel_regions(self, optimized, monkeypatch):
        """A hash-partition-shipped producer inside a parallel region
        must stream through the scatter, not buffer-then-repartition."""
        workload, picks = optimized["tpch_q15"]
        fired = []
        original = engine_parallel.assemble

        def spy(packed, scatter):
            if scatter is not None:
                fired.append(scatter)
            return original(packed, scatter)

        monkeypatch.setattr(engine_parallel, "assemble", spy)
        engine = Engine(workload.params, workload.true_costs, engine_jobs=2)
        engine.execute(picks[0].physical, workload.data)
        assert fired


def _tiny_flow(udf, degree=4, reduce_key=None):
    """One source plus one UDF operator, optimized at small degree."""
    fields = attrs("t.k", "t.v")
    catalog = Catalog()
    catalog.add_source("T", SourceStats(row_count=24))
    ctx = PlanContext(catalog, AnnotationMode.SCA)
    if reduce_key is None:
        op = MapOp("annotate", map_udf(udf), FieldMap(fields))
    else:
        op = ReduceOp("fold", reduce_udf(udf), FieldMap(fields), reduce_key)
    flow = chain(Source("T", fields), op)
    params = CostParams(degree=degree)
    phys = optimize_physical(flow, ctx, CardinalityEstimator(ctx), params)
    data = {"T": [{fields[0]: i, fields[1]: i * 10} for i in range(24)]}
    return phys, data, params


class TestWorkerErrors:
    def test_chain_udf_error_names_operator_and_partition(self):
        def explode(rec, out):
            if rec.get_field(0) == 7:
                raise ValueError("bad tuple 7")
            out.emit(rec.copy())

        phys, data, params = _tiny_flow(explode)
        for engine_jobs in (1, 2):  # serial and pooled attribute alike
            engine = Engine(params, engine_jobs=engine_jobs)
            with pytest.raises(ExecutionError) as err:
                engine.execute(phys, data)
            message = str(err.value)
            assert "'annotate'" in message
            assert "partition 3" in message  # 7 % degree=4 under round robin
            assert "bad tuple 7" in message

    def test_local_strategy_udf_error_names_operator_and_partition(self):
        def explode(records, out):
            if records[0].get_field(0) % 4 == 1:
                raise RuntimeError("reduce group blew up")
            out.emit(records[0].copy())

        phys, data, params = _tiny_flow(explode, reduce_key=(0,))
        for engine_jobs in (1, 2):  # serial and pooled attribute alike
            engine = Engine(params, engine_jobs=engine_jobs)
            with pytest.raises(ExecutionError) as err:
                engine.execute(phys, data)
            message = str(err.value)
            assert "'fold'" in message
            assert "partition" in message
            assert "reduce group blew up" in message

    def test_serial_engine_raises_the_same_error_class(self):
        def explode(rec, out):
            raise ValueError("always")

        phys, data, params = _tiny_flow(explode)
        with pytest.raises(ExecutionError):
            Engine(params, engine_jobs=2).execute(phys, data)
        # Serial path: the same class, with the UDF error chained.
        with pytest.raises(ExecutionError) as err:
            Engine(params).execute(phys, data)
        assert isinstance(err.value.__cause__, ValueError)
        assert str(err.value.__cause__) == "always"

    @pytest.mark.parametrize("streaming", [False, True])
    def test_serial_error_names_operator_and_partition(self, streaming):
        def explode(rec, out):
            if rec.get_field(0) == 7:
                raise ValueError("bad tuple 7")
            out.emit(rec.copy())

        phys, data, params = _tiny_flow(explode)
        with pytest.raises(ExecutionError) as err:
            Engine(params, streaming=streaming).execute(phys, data)
        message = str(err.value)
        assert "'annotate'" in message
        assert "partition 3" in message  # 7 % degree=4 under round robin
        assert "ValueError: bad tuple 7" in message
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("streaming", [False, True])
    def test_serial_local_strategy_error_is_typed_and_chained(self, streaming):
        def explode(records, out):
            if records[0].get_field(0) % 4 == 1:
                raise RuntimeError("reduce group blew up")
            out.emit(records[0].copy())

        phys, data, params = _tiny_flow(explode, reduce_key=(0,))
        with pytest.raises(ExecutionError) as err:
            Engine(params, streaming=streaming).execute(phys, data)
        message = str(err.value)
        assert "'fold'" in message
        assert "partition" in message
        assert "RuntimeError: reduce group blew up" in message
        assert isinstance(err.value.__cause__, RuntimeError)
        assert str(err.value.__cause__) == "reduce group blew up"


class TestEngineJobsValidation:
    @pytest.mark.parametrize("bad", [0, -1, 1.5, "4"])
    def test_rejects_non_positive_or_non_integer_jobs(self, bad):
        with pytest.raises(ExecutionError, match="engine_jobs"):
            Engine(engine_jobs=bad)

    def test_serial_fallback_warns_without_fork(self, monkeypatch):
        monkeypatch.setattr(engine_parallel, "available", lambda: False)

        def ident(rec, out):
            out.emit(rec.copy())

        phys, data, params = _tiny_flow(ident)
        with pytest.warns(RuntimeWarning, match="fork"):
            engine = Engine(params, engine_jobs=4)
        assert engine.engine_jobs == 1  # fell back, did not crash
        result = engine.execute(phys, data)
        assert len(result.records) == 24

    def test_jobs_one_never_forks(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("engine_jobs=1 must not enter the pool")

        monkeypatch.setattr(engine_parallel, "_run_region", boom)

        def ident(rec, out):
            out.emit(rec.copy())

        phys, data, params = _tiny_flow(ident)
        result = Engine(params).execute(phys, data)
        assert len(result.records) == 24


class TestHarnessWiring:
    def test_run_experiment_engine_jobs_matches_serial(self, optimized):
        from repro.bench import run_experiment

        workload, _ = optimized["textmining"]
        serial = run_experiment(workload, picks=2)
        pooled = run_experiment(workload, picks=2, engine_jobs=2)
        assert [p.runtime_seconds for p in serial.executed] == [
            p.runtime_seconds for p in pooled.executed
        ]
        assert [p.result.records for p in serial.executed] == [
            p.result.records for p in pooled.executed
        ]

    def test_execute_plan_engine_jobs_matches_serial(self, optimized):
        from repro.bench.harness import execute_plan

        workload, picks = optimized["clickstream"]
        want = execute_plan(workload, picks[0])
        got = execute_plan(workload, picks[0], engine_jobs=2)
        assert got.records == want.records
        assert got.seconds == want.seconds

    def test_cli_rejects_zero_engine_jobs(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "textmining", "--engine-jobs", "0"]
            )
        assert "must be an integer >= 1" in capsys.readouterr().err
