"""Partition-parallel stage execution over a fork-based worker pool.

The streaming engine's unit of work is one *partition* of one pipeline
stage: a fused Map chain streams each partition independently, and every
local strategy (reduce, join, cross, co-group) evaluates partition ``i``
of its shipped inputs without looking at partition ``j``.  With
``Engine(engine_jobs=N)`` those per-partition evaluations run
concurrently across ``N`` forked worker processes.

Worker discipline
-----------------
Workers are **forked**, never spawned: each parallel region publishes its
state — the operators, the input partitions, the batch size, and an
optional scatter spec — in a module global and forks the pool *after*
that state exists, so everything is inherited by address.  Operators and
UDF callables never cross the process boundary; the only things shipped
back are primitives: output records (plain ``Attribute``-keyed dicts),
integer row/group/pair counts, and per-partition byte totals.

Determinism rule
----------------
A worker computes exactly what the serial engine would compute for its
partition — the same helper functions run on the same rows — and ships
back the per-partition *facts* (rows, counts, byte totals).  All metric
float arithmetic stays in the parent and is applied in partition-index
order, identical expression for expression to the serial code, so
records, per-op :class:`~repro.engine.metrics.OpMetrics`, and modeled
seconds are bit-identical to ``engine_jobs=1`` (pinned by
``tests/engine/test_parallel_parity.py``).

Breaker -> ship streaming
-------------------------
When a stage's output is consumed through a hash-partition ship, the
consumer passes a *scatter spec* down to the producing region: each
worker scatters its finished partition straight into the ship's target
buckets (counting boundary crossings and pre-scatter bytes as it goes)
and the parent concatenates buckets in origin order.  The fully buffered
pre-ship output partitions never exist in the parent, and the shuffle's
cost accounting is reconstructed from the shipped primitives, equal to
the serial ``repartition_by_key`` path.

Errors raised inside a pooled partition are marshalled back as
primitives (operator name, partition index, formatted traceback) and
re-raised in the parent as :class:`~repro.core.errors.ExecutionError` —
a UDF bug never surfaces as a bare ``BrokenProcessPool``.  The serial
engine raises the same class with the same attribution
(:func:`partition_error`), chaining the original exception.

On platforms without ``fork`` the engine falls back to serial execution
(``available()`` gates the dispatch, with a warning at construction).
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..core.errors import ExecutionError
from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    ReduceOp,
)
from ..core.record import RawRecord, record_bytes
from ..core.reference import (
    apply_cogroup,
    apply_cross,
    apply_map,
    apply_match,
    apply_reduce,
    group_by,
)
from ..obs.tracer import clock
from .partition import Partitions, hash_key

#: Fork-inherited region state; layout depends on the worker function.
_REGION: tuple | None = None

#: A scatter spec: (ship key attributes, target partition count).
ScatterSpec = tuple


def available() -> bool:
    """Partition-parallel execution needs fork-style process inheritance."""
    return "fork" in multiprocessing.get_all_start_methods()


def bytes_of(rows: list[RawRecord]) -> float:
    """Byte total of one partition, identical to the serial accounting."""
    return float(sum(record_bytes(r) for r in rows))


@dataclass(slots=True)
class ScatteredOutput:
    """A stage output the producing workers hash-scattered into ship buckets.

    Carries everything the consumer's ship accounting needs — boundary
    crossings and per-origin pre-scatter byte totals — so the consumer
    charges the shuffle without ever holding the unscattered partitions.
    """

    parts: Partitions  # post-scatter target partitions, origin order
    moved: int  # records that crossed instance boundaries
    rows: int  # total records produced (pre-scatter)
    pre_bytes: list[float]  # per-origin byte totals, origin order


# -- shared per-partition evaluation (serial path and workers) ---------------


def run_chain_partition(
    ops: list[tuple[str, MapOp]],
    rows: list[RawRecord],
    batch: int,
    active: list | None = None,
) -> tuple[list[RawRecord], list[int], list[int]]:
    """Stream one partition through a fused Map chain in bounded batches.

    Returns the collected output rows plus per-operator input/output row
    counts — the integer facts the chain's metric arithmetic consumes.
    ``active`` (a one-element list) tracks the operator currently
    executing, for error attribution.
    """
    count = len(ops)
    in_rows = [0] * count
    out_rows = [0] * count
    collected: list[RawRecord] = []
    for start in range(0, len(rows), batch):
        cur = rows[start : start + batch]
        for k, (name, op) in enumerate(ops):
            if not cur:
                break
            if active is not None:
                active[0] = name
            in_rows[k] += len(cur)
            cur = apply_map(op, cur)
            out_rows[k] += len(cur)
        collected.extend(cur)
    return collected, in_rows, out_rows


def eval_local_partition(
    op, rows_by_input: tuple[list[RawRecord], ...], need_bytes: bool
) -> tuple[list[RawRecord], tuple]:
    """Evaluate one partition of a local strategy.

    Returns the output rows plus the auxiliary scalars the parent's
    metric arithmetic needs for this partition (group/key counts, and —
    for Reduce without precomputed sizes — the partition's byte total).
    """
    if isinstance(op, MapOp):
        (rows,) = rows_by_input
        return apply_map(op, rows), ()
    if isinstance(op, ReduceOp):
        (rows,) = rows_by_input
        groups = len(group_by(rows, op.key_attr_tuple())) if rows else 0
        result = apply_reduce(op, rows)
        return result, (groups, bytes_of(rows) if need_bytes else None)
    if isinstance(op, MatchOp):
        l_rows, r_rows = rows_by_input
        return apply_match(op, l_rows, r_rows), ()
    if isinstance(op, CrossOp):
        l_rows, r_rows = rows_by_input
        return apply_cross(op, l_rows, r_rows), ()
    if isinstance(op, CoGroupOp):
        l_rows, r_rows = rows_by_input
        result = apply_cogroup(op, l_rows, r_rows)
        keys = len(
            set(group_by(l_rows, op.left_key_attrs()))
            | set(group_by(r_rows, op.right_key_attrs()))
        )
        return result, (keys,)
    raise ExecutionError(f"cannot execute {op!r}")


# -- scatter packing ----------------------------------------------------------


def scatter_partition(
    rows: list[RawRecord], origin: int, scatter: ScatterSpec | None
):
    """Pack one finished partition for shipping back to the parent.

    Without a scatter spec the rows ship back as-is.  With one, the rows
    are hash-scattered into the ship's target buckets exactly as
    ``repartition_by_key`` would route them, and the pack carries the
    primitives the parent's ship accounting needs: boundary crossings
    and the pre-scatter byte total.
    """
    if scatter is None:
        return rows, None
    key, degree = scatter
    buckets: Partitions = [[] for _ in range(degree)]
    moved = 0
    for row in rows:
        target = hash_key(row, key) % degree
        if target != origin:
            moved += 1
        buckets[target].append(row)
    return buckets, (moved, bytes_of(rows), len(rows))


def assemble(packed, scatter: ScatterSpec | None):
    """Merge per-partition packs (in origin order) into the region output.

    Plain packs concatenate into ordinary partitions; scattered packs
    concatenate bucket-by-bucket in origin order — the exact row order
    ``repartition_by_key`` produces — into a :class:`ScatteredOutput`.
    """
    if scatter is None:
        return [rows for rows, _ in packed]
    _, degree = scatter
    parts: Partitions = [[] for _ in range(degree)]
    moved = 0
    rows_total = 0
    pre_bytes: list[float] = []
    for buckets, (part_moved, part_bytes, part_rows) in packed:
        for target in range(degree):
            parts[target].extend(buckets[target])
        moved += part_moved
        rows_total += part_rows
        pre_bytes.append(part_bytes)
    return ScatteredOutput(
        parts=parts, moved=moved, rows=rows_total, pre_bytes=pre_bytes
    )


# -- worker bodies ------------------------------------------------------------


def partition_error(op_name: str, index: int, message: str) -> ExecutionError:
    """The typed error for an operator failing in one partition.

    Serial and pooled execution raise the same class with the same
    attribution, so callers never see behaviour depend on ``engine_jobs``.
    """
    return ExecutionError(
        f"operator {op_name!r} failed in partition {index}: {message}"
    )


def _error_payload(op_name: str, index: int, exc: Exception) -> tuple:
    return (
        "error",
        op_name,
        index,
        f"{type(exc).__name__}: {exc}",
        traceback.format_exc(),
    )


def _chain_worker(index: int) -> tuple:
    ops, base, batch, scatter, trace = _REGION
    active = [ops[0][0]]
    start = clock() if trace else 0.0
    try:
        collected, in_rows, out_rows = run_chain_partition(
            ops, base[index], batch, active
        )
        pack = scatter_partition(collected, index, scatter)
    except Exception as exc:
        return _error_payload(active[0], index, exc)
    # Span primitive for the parent's tracer: CLOCK_MONOTONIC readings
    # are comparable across fork on Linux, so raw (start, end) plus the
    # worker pid is everything the parent needs to place this partition
    # on the worker's own timeline lane.  Never a Span object — workers
    # ship primitives only.
    span = (start, clock(), os.getpid()) if trace else None
    return ("ok", pack, in_rows, out_rows, span)


def _local_worker(index: int) -> tuple:
    op, inputs, need_bytes, scatter, trace = _REGION
    start = clock() if trace else 0.0
    try:
        result, aux = eval_local_partition(
            op, tuple(inp[index] for inp in inputs), need_bytes
        )
        pack = scatter_partition(result, index, scatter)
    except Exception as exc:
        return _error_payload(op.name, index, exc)
    span = (start, clock(), os.getpid()) if trace else None
    return ("ok", pack, aux, span)


# -- the pool -----------------------------------------------------------------


def _run_region(
    state: tuple, worker, count: int, jobs: int, label: str
) -> list[tuple]:
    """Fork a pool over ``count`` partitions; return payloads in order.

    The pool is created *after* the region state is published, so workers
    inherit operators and input partitions by address; it is torn down
    when the region completes.  Worker-reported errors re-raise as
    :class:`ExecutionError`; a worker dying without a Python exception
    (OOM, interpreter crash) surfaces the same way instead of a bare
    ``BrokenProcessPool``.
    """
    global _REGION
    _REGION = state
    try:
        fork = multiprocessing.get_context("fork")
        workers = max(1, min(jobs, count))
        with ProcessPoolExecutor(max_workers=workers, mp_context=fork) as pool:
            payloads = list(pool.map(worker, range(count)))
    except BrokenProcessPool as exc:
        raise ExecutionError(
            f"worker pool died while executing {label}: a pooled partition "
            "terminated abnormally (out of memory or interpreter crash) "
            "without raising a Python exception"
        ) from exc
    finally:
        _REGION = None
    for payload in payloads:
        if payload[0] == "error":
            _, op_name, index, message, tb = payload
            raise partition_error(
                op_name, index, f"{message}\n--- worker traceback ---\n{tb}"
            )
    return payloads


def run_chain(
    ops: list[tuple[str, MapOp]],
    base: Partitions,
    batch: int,
    scatter: ScatterSpec | None,
    jobs: int,
    trace: bool = False,
):
    """Run a fused Map chain's partitions across the worker pool.

    Returns ``(output, in_rows, out_rows, spans)`` where the count
    arrays are indexed ``[operator][partition]`` exactly as the serial
    path builds them, ``output`` is partitions or a
    :class:`ScatteredOutput`, and ``spans`` holds one ``(op_name,
    partition, start, end, pid)`` wall-clock primitive per partition
    when ``trace`` is set (empty otherwise).
    """
    count = len(base)
    payloads = _run_region(
        (ops, base, batch, scatter, trace),
        _chain_worker,
        count,
        jobs,
        f"fused chain starting at operator {ops[0][0]!r}",
    )
    in_rows = [[0] * count for _ in ops]
    out_rows = [[0] * count for _ in ops]
    packed = []
    spans = []
    for i, (_, pack, part_in, part_out, span) in enumerate(payloads):
        for k in range(len(ops)):
            in_rows[k][i] = part_in[k]
            out_rows[k][i] = part_out[k]
        packed.append(pack)
        if span is not None:
            spans.append((ops[0][0], i, *span))
    return assemble(packed, scatter), in_rows, out_rows, spans


def run_local(
    op,
    inputs: tuple[Partitions, ...],
    need_bytes: bool,
    scatter: ScatterSpec | None,
    jobs: int,
    degree: int,
    trace: bool = False,
):
    """Run one local strategy's partitions across the worker pool.

    Returns ``(output, evaled, spans)`` where ``evaled[i]`` is
    ``(result_len, aux)`` for partition ``i`` — the same facts the
    serial evaluation loop hands the metric arithmetic — and ``spans``
    carries per-partition wall-clock primitives as in :func:`run_chain`.
    """
    payloads = _run_region(
        (op, inputs, need_bytes, scatter, trace),
        _local_worker,
        degree,
        jobs,
        f"operator {op.name!r}",
    )
    packed = []
    evaled = []
    spans = []
    for i, (_, pack, aux, span) in enumerate(payloads):
        rows_or_buckets, ship_info = pack
        length = ship_info[2] if ship_info is not None else len(rows_or_buckets)
        evaled.append((length, aux))
        packed.append(pack)
        if span is not None:
            spans.append((op.name, i, *span))
    return assemble(packed, scatter), evaled, spans
