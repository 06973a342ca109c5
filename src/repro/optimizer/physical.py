"""Cost-based physical optimization: shipping and local strategies.

For every logical alternative the physical optimizer chooses, per
operator, a *shipping strategy* for each input (forward, hash-partition,
broadcast) and a *local strategy* (pipelined map, sort-based grouping,
hash join with a build side, nested-loop cross, sort-based co-group),
tracking *interesting properties* — here, the hash-partitioning of the
data — so that, e.g., a Match can reuse the partitioning a Reduce
established (the Q15 discussion of Section 7.3).

The search is a small Volcano-style dynamic program: each node returns
its cheapest physical plan per partitioning property.

The option lists are memoized per interned logical sub-plan in a
:class:`~repro.optimizer.memo.Memo`, so one :class:`PhysicalOptimizer`
instance can be shared across every enumerated alternative of a plan
space: a subtree that appears in hundreds of alternatives is physically
optimized exactly once (hash-consing makes the memo key an identity
lookup).  The memo is a first-class subsystem: it can be passed in to be
shared across optimizer instances and invalidated along the dirty spine
of changed operators between feedback rounds (see
:mod:`repro.optimizer.memo`).  Binary operators
additionally apply an exact branch-and-bound cut: once every achievable
output partitioning has an option, child combinations whose summed
subtree costs cannot beat any kept option are skipped without generating
their physical variants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.errors import OptimizationError
from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    MaterializedSource,
    ReduceOp,
    Sink,
    Source,
)
from ..core.plan import Node
from ..core.schema import Attribute
from .cardinality import CardinalityEstimator, EstStats
from .context import PlanContext
from .cost import CostParams
from .memo import Memo

Partitioning = frozenset[frozenset[Attribute]]
RANDOM: Partitioning = frozenset()


class ShipKind(enum.Enum):
    FORWARD = "forward"
    PARTITION = "partition"
    BROADCAST = "broadcast"


@dataclass(frozen=True, slots=True)
class Ship:
    kind: ShipKind
    key: tuple[Attribute, ...] | None = None

    def describe(self) -> str:
        if self.kind is ShipKind.PARTITION and self.key:
            return f"partition({', '.join(a.name for a in self.key)})"
        return self.kind.value


_FORWARD = Ship(ShipKind.FORWARD)
_BROADCAST = Ship(ShipKind.BROADCAST)
_FORWARD_SHIPS = (_FORWARD,)


class LocalStrategy(enum.Enum):
    SCAN = "scan"
    PIPELINE = "pipelined map"
    SORT_GROUP = "sort-based group"
    HASH_JOIN = "hash join"
    NESTED_LOOP = "nested-loop cross"
    SORT_COGROUP = "sort-based co-group"
    COLLECT = "collect"


@dataclass(frozen=True, slots=True, eq=False)
class PhysNode:
    """One operator of a physical execution plan.

    ``eq=False`` keeps ``object`` identity hashing/equality: the generated
    dataclass ``__hash__``/``__eq__`` would recurse over the whole subtree
    on every memo or subtree-cache lookup.  The shared Volcano memo hands
    structurally shared sub-plans around as the *same* object, so identity
    is the right equivalence for every hot lookup (engine subtree cache,
    rank bookkeeping); structural comparisons go through ``describe()``.
    """

    logical: Node
    ships: tuple[Ship, ...]
    local: LocalStrategy
    build_side: int | None
    children: tuple["PhysNode", ...]
    est: EstStats
    cost_self: float
    cost_total: float
    partitioning: Partitioning

    @property
    def name(self) -> str:
        return self.logical.op.name

    def pipeline_stages(self) -> tuple[tuple["PhysNode", ...], ...]:
        """Decompose the plan into the engine's streaming pipeline stages.

        A *stage* is one per-partition streaming pass: a pipeline breaker
        (source scan, any operator behind a non-forward ship, or a
        blocking local strategy — sort-based Reduce/CoGroup, hash-join
        build, nested-loop cross) followed by the maximal chain of
        forward-shipped Map operators (and a collecting Sink) fused on
        top of it.  Every node of the plan appears in exactly one stage;
        stages are listed in execution order (children before parents),
        each stage upstream-first.
        """
        stages: list[tuple[PhysNode, ...]] = []

        def visit(top: "PhysNode") -> None:
            chain: list[PhysNode] = []
            cur = top
            while pipelineable(cur):
                chain.append(cur)
                cur = cur.children[0]
            for child in cur.children:
                visit(child)
            chain.reverse()
            stages.append((cur, *chain))

        visit(self)
        return tuple(stages)

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        ships = ", ".join(s.describe() for s in self.ships) or "-"
        build = f", build={self.build_side}" if self.build_side is not None else ""
        lines = [
            f"{pad}{self.name} [{self.local.value}{build}] ships: {ships} "
            f"(rows~{self.est.rows:.0f}, cost~{self.cost_total:.3f}s)"
        ]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


def pipelineable(node: PhysNode) -> bool:
    """True when *node* fuses into the pipeline stage of its only child.

    Forward-shipped Maps stream record batches without a barrier, and a
    Sink merely collects its input; everything else — source scans,
    non-forward ships, blocking local strategies — breaks the pipeline.
    """
    op = node.logical.op
    if isinstance(op, Sink):
        return True
    return isinstance(op, MapOp) and all(
        ship.kind is ShipKind.FORWARD for ship in node.ships
    )


def _keep_partitionings(
    parts: Partitioning, writes: frozenset[Attribute]
) -> Partitioning:
    return frozenset(p for p in parts if not (p & writes))


def _compatible(parts: Partitioning, key: frozenset[Attribute]) -> bool:
    """A partitioning on P co-locates every K-group when P is a subset of K."""
    return any(p <= key for p in parts)


class PhysicalOptimizer:
    def __init__(
        self,
        ctx: PlanContext,
        estimator: CardinalityEstimator,
        params: CostParams,
        memo: Memo | None = None,
    ) -> None:
        self.ctx = ctx
        self.est = estimator
        self.params = params
        # Memo of the Volcano search: interned logical sub-plan -> pruned
        # physical options, shared across every alternative this optimizer
        # instance is asked to plan.  A caller-provided memo additionally
        # shares entries across optimizer instances and feedback rounds
        # (via dirty-spine invalidation).
        self._memo = memo if memo is not None else Memo(op_names=ctx.op_names)

    # -- public ------------------------------------------------------------

    @property
    def memo(self) -> Memo:
        return self._memo

    def optimize(self, body: Node) -> PhysNode:
        options = self._options(body)
        best = min(options, key=lambda p: p.cost_total)
        return best

    # -- option generation -----------------------------------------------------

    def _options(self, node: Node) -> tuple[PhysNode, ...]:
        cached = self._memo.options(node)
        if cached is None:
            cached = self._compute_options(node)
            self._memo.store(node, cached)
        return cached

    def _compute_options(self, node: Node) -> tuple[PhysNode, ...]:
        op = node.op
        if isinstance(op, Source):
            return (self._source(node),)
        if isinstance(op, Sink):
            est = self.est.estimate(node)
            return tuple(
                self._wrap(node, est, _FORWARD_SHIPS,
                           LocalStrategy.COLLECT, None, (child,), 0.0,
                           child.partitioning)
                for child in self._options(node.only_child)
            )
        if isinstance(op, MapOp):
            return self._map_options(node)
        if isinstance(op, ReduceOp):
            return self._reduce_options(node)
        if isinstance(op, (MatchOp, CoGroupOp, CrossOp)):
            return self._binary_options(node)
        raise OptimizationError(f"cannot plan {op!r}")  # pragma: no cover

    def _binary_options(self, node: Node) -> tuple[PhysNode, ...]:
        """Enumerate child-option combinations with branch-and-bound.

        ``cost_total`` of any option is at least the summed costs of its
        children, so once every *achievable* output partitioning holds an
        option, a child pair whose summed costs already reach the most
        expensive kept option cannot improve any bucket (replacement is
        strict-<) and is skipped before its variants are generated.
        """
        op = node.op
        if isinstance(op, MatchOp):
            variants = self._match_planner(node)
        elif isinstance(op, CrossOp):
            variants = self._cross_planner(node)
        elif isinstance(op, CoGroupOp):
            variants = self._cogroup_planner(node)
        else:  # pragma: no cover - defensive
            raise OptimizationError(f"cannot plan {op!r}")
        lefts = self._options(node.children[0])
        rights = self._options(node.children[1])
        buckets = self._achievable_partitionings(node, lefts, rights)
        best: dict[Partitioning, PhysNode] = {}
        threshold: float | None = None
        for left in lefts:
            for right in rights:
                if (
                    threshold is not None
                    and left.cost_total + right.cost_total >= threshold
                ):
                    continue
                for option in variants(left, right):
                    current = best.get(option.partitioning)
                    if current is None or option.cost_total < current.cost_total:
                        best[option.partitioning] = option
                if len(best) == len(buckets):
                    threshold = max(p.cost_total for p in best.values())
        return tuple(best.values())

    def _achievable_partitionings(
        self,
        node: Node,
        lefts: tuple[PhysNode, ...],
        rights: tuple[PhysNode, ...],
    ) -> frozenset[Partitioning]:
        """Every output partitioning any child combination could produce."""
        op = node.op
        writes = self.ctx.props(op).writes
        out: set[Partitioning] = set()
        if isinstance(op, (MatchOp, CoGroupOp)):
            keys = frozenset(
                {
                    frozenset(op.left_key_attrs()),
                    frozenset(op.right_key_attrs()),
                }
            )
            out.add(_keep_partitionings(keys, writes))
        if isinstance(op, (MatchOp, CrossOp)):
            # Broadcast variants preserve the probe side's partitioning.
            for side in (lefts, rights):
                for child in side:
                    out.add(_keep_partitionings(child.partitioning, writes))
        return frozenset(out)

    def _prune(self, options: list[PhysNode]) -> tuple[PhysNode, ...]:
        """Keep the cheapest option per partitioning property."""
        best: dict[Partitioning, PhysNode] = {}
        for option in options:
            current = best.get(option.partitioning)
            if current is None or option.cost_total < current.cost_total:
                best[option.partitioning] = option
        return tuple(best.values())

    # -- helpers --------------------------------------------------------------

    def _wrap(
        self,
        node: Node,
        est: EstStats,
        ships: tuple[Ship, ...],
        local: LocalStrategy,
        build_side: int | None,
        children: tuple[PhysNode, ...],
        cost_self: float,
        partitioning: Partitioning,
    ) -> PhysNode:
        total = cost_self + sum(c.cost_total for c in children)
        return PhysNode(
            logical=node,
            ships=ships,
            local=local,
            build_side=build_side,
            children=children,
            est=est,
            cost_self=cost_self,
            cost_total=total,
            partitioning=partitioning,
        )

    def _udf_cpu(self, node: Node, est: EstStats) -> float:
        hint = self.est.hints_for(node.op.name)
        params = self.params
        units = est.calls * hint.cpu_per_call + est.rows * params.record_overhead
        return params.cpu_seconds(units)

    # -- per-operator planning ---------------------------------------------------

    def _source(self, node: Node) -> PhysNode:
        est = self.est.estimate(node)
        op = node.op
        if isinstance(op, MaterializedSource):
            # An executed stage boundary: the data is an in-memory
            # checkpoint whose production was charged when the stage ran,
            # so re-reading it is free, and it arrives already hash-
            # partitioned however the executed plan left it.
            return self._wrap(
                node, est, (), LocalStrategy.SCAN, None, (), 0.0,
                op.partitioning,
            )
        cost = self.params.disk_seconds(est.bytes)
        return self._wrap(
            node, est, (), LocalStrategy.SCAN, None, (), cost, RANDOM
        )

    def _map_options(self, node: Node) -> tuple[PhysNode, ...]:
        writes = self.ctx.props(node.op).writes
        est = self.est.estimate(node)
        cost = self._udf_cpu(node, est)
        # Pick the cheapest child per output partitioning *before*
        # constructing any PhysNode: ``cost + child.cost_total`` is
        # exactly the ``cost_total`` _wrap would compute (summing a
        # 1-tuple adds a float-exact 0.0), and strict-< replacement in
        # child order reproduces _prune's first-wins tie-break.
        chosen: dict[Partitioning, tuple[float, PhysNode]] = {}
        for child in self._options(node.only_child):
            parts = _keep_partitionings(child.partitioning, writes)
            total = cost + child.cost_total
            current = chosen.get(parts)
            if current is None or total < current[0]:
                chosen[parts] = (total, child)
        return tuple(
            self._wrap(
                node,
                est,
                _FORWARD_SHIPS,
                LocalStrategy.PIPELINE,
                None,
                (child,),
                cost,
                parts,
            )
            for parts, (_, child) in chosen.items()
        )

    def _reduce_options(self, node: Node) -> tuple[PhysNode, ...]:
        op = node.op
        assert isinstance(op, ReduceOp)
        params = self.params
        key = op.key_attrs()
        key_tuple = op.key_attr_tuple()
        est = self.est.estimate(node)
        udf_cost = self._udf_cpu(node, est)
        parts = frozenset({key})
        # Every option lands in the same partitioning bucket, so compare
        # ``cost + child.cost_total`` (the exact cost_total _wrap would
        # compute) across children and construct only the winner; strict-<
        # in child order reproduces _prune's first-wins tie-break.
        best: tuple[float, float, bool, PhysNode] | None = None
        for child in self._options(node.only_child):
            in_est = child.est
            cost = 0.0
            forward = _compatible(child.partitioning, key)
            if not forward:
                cost += params.net_seconds(params.partition_bytes(in_est.bytes))
            cost += params.cpu_seconds(params.sort_units(in_est.rows))
            cost += params.disk_seconds(params.spill_bytes(in_est.bytes))
            cost += udf_cost
            total = cost + child.cost_total
            if best is None or total < best[0]:
                best = (total, cost, forward, child)
        if best is None:  # pragma: no cover - sources guarantee options
            return ()
        _, cost, forward, child = best
        ship = _FORWARD if forward else Ship(ShipKind.PARTITION, key_tuple)
        return (
            self._wrap(
                node,
                est,
                (ship,),
                LocalStrategy.SORT_GROUP,
                None,
                (child,),
                cost,
                parts,
            ),
        )

    def _match_planner(self, node: Node):
        """Per-logical-node invariants hoisted; returns a per-pair generator."""
        op = node.op
        assert isinstance(op, MatchOp)
        params = self.params
        writes = self.ctx.props(op).writes
        lkey_tuple = op.left_key_attrs()
        rkey_tuple = op.right_key_attrs()
        lkey = frozenset(lkey_tuple)
        rkey = frozenset(rkey_tuple)
        est = self.est.estimate(node)
        udf_cost = self._udf_cpu(node, est)
        # After a partitioned join only the join keys are valid partitioning
        # properties: prior partitionings were destroyed by the shuffle.
        repart_parts = _keep_partitionings(frozenset({lkey, rkey}), writes)

        def variants(left: PhysNode, right: PhysNode) -> list[PhysNode]:
            out: list[PhysNode] = []

            # (a) repartition both sides, hash join (build on the smaller side)
            cost = 0.0
            ships: list[Ship] = []
            for child, key, key_tuple in (
                (left, lkey, lkey_tuple),
                (right, rkey, rkey_tuple),
            ):
                if _compatible(child.partitioning, key):
                    ships.append(_FORWARD)
                else:
                    ships.append(Ship(ShipKind.PARTITION, key_tuple))
                    cost += params.net_seconds(
                        params.partition_bytes(child.est.bytes)
                    )
            build = 0 if left.est.bytes <= right.est.bytes else 1
            probe = 1 - build
            sides = (left, right)
            cost += params.cpu_seconds(
                sides[build].est.rows * params.build_unit
                + sides[probe].est.rows * params.probe_unit
            )
            cost += params.disk_seconds(params.spill_bytes(sides[build].est.bytes))
            cost += udf_cost
            out.append(
                self._wrap(node, est, tuple(ships), LocalStrategy.HASH_JOIN,
                           build, (left, right), cost, repart_parts)
            )

            # (b)/(c) broadcast one side, forward the other, build on broadcast
            for build_side in (0, 1):
                build_child = sides[build_side]
                probe_child = sides[1 - build_side]
                cost = params.net_seconds(
                    params.broadcast_bytes(build_child.est.bytes)
                )
                cost += params.cpu_seconds_single(
                    build_child.est.rows * params.build_unit
                )
                cost += params.cpu_seconds(probe_child.est.rows * params.probe_unit)
                cost += params.disk_seconds(
                    params.spill_bytes(build_child.est.bytes * params.degree)
                )
                cost += udf_cost
                ships = [_FORWARD, _FORWARD]
                ships[build_side] = _BROADCAST
                parts = _keep_partitionings(probe_child.partitioning, writes)
                out.append(
                    self._wrap(node, est, tuple(ships), LocalStrategy.HASH_JOIN,
                               build_side, (left, right), cost, parts)
                )
            return out

        return variants

    def _cross_planner(self, node: Node):
        params = self.params
        writes = self.ctx.props(node.op).writes
        est = self.est.estimate(node)
        pairs = est.calls
        udf_cost = self._udf_cpu(node, est)
        pair_cost = params.cpu_seconds(pairs * params.cross_unit)

        def variants(left: PhysNode, right: PhysNode) -> list[PhysNode]:
            out: list[PhysNode] = []
            sides = (left, right)
            for build_side in (0, 1):
                build_child = sides[build_side]
                probe_child = sides[1 - build_side]
                cost = params.net_seconds(
                    params.broadcast_bytes(build_child.est.bytes)
                )
                cost += pair_cost
                cost += udf_cost
                ships = [_FORWARD, _FORWARD]
                ships[build_side] = _BROADCAST
                parts = _keep_partitionings(probe_child.partitioning, writes)
                out.append(
                    self._wrap(node, est, tuple(ships), LocalStrategy.NESTED_LOOP,
                               build_side, (left, right), cost, parts)
                )
            return out

        return variants

    def _cogroup_planner(self, node: Node):
        op = node.op
        assert isinstance(op, CoGroupOp)
        params = self.params
        writes = self.ctx.props(op).writes
        lkey_tuple = op.left_key_attrs()
        rkey_tuple = op.right_key_attrs()
        lkey = frozenset(lkey_tuple)
        rkey = frozenset(rkey_tuple)
        est = self.est.estimate(node)
        udf_cost = self._udf_cpu(node, est)
        parts = _keep_partitionings(frozenset({lkey, rkey}), writes)

        def variants(left: PhysNode, right: PhysNode) -> list[PhysNode]:
            cost = 0.0
            ships = []
            for child, key, key_tuple in (
                (left, lkey, lkey_tuple),
                (right, rkey, rkey_tuple),
            ):
                if _compatible(child.partitioning, key):
                    ships.append(_FORWARD)
                else:
                    ships.append(Ship(ShipKind.PARTITION, key_tuple))
                    cost += params.net_seconds(
                        params.partition_bytes(child.est.bytes)
                    )
                cost += params.cpu_seconds(params.sort_units(child.est.rows))
                cost += params.disk_seconds(params.spill_bytes(child.est.bytes))
            cost += udf_cost
            return [
                self._wrap(node, est, tuple(ships), LocalStrategy.SORT_COGROUP,
                           None, (left, right), cost, parts)
            ]

        return variants


def optimize_physical(
    body: Node,
    ctx: PlanContext,
    estimator: CardinalityEstimator,
    params: CostParams,
) -> PhysNode:
    """Choose shipping and local strategies for one logical flow."""
    return PhysicalOptimizer(ctx, estimator, params).optimize(body)


# ---------------------------------------------------------------------------
# Admissible lower bounds (guided search)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundEntry:
    """Lower-bound summary of one logical sub-plan.

    ``stats`` are the node's bound cardinalities — numerically identical
    to :meth:`CardinalityEstimator.estimate` (they run the same formulas
    via :meth:`~CardinalityEstimator.bound_stats_via`) but cached in the
    memo's bound table so computing bounds never spends estimate-cache
    misses.  ``possible`` is the union of every partition group any
    physical option of this subtree could output — a superset, so a key
    no possible group satisfies proves every option must repartition.
    ``cost_lb`` is an admissible total-cost bound: ``cost_lb <=
    min(option.cost_total for option in options(node))``.
    """

    stats: EstStats
    possible: frozenset[frozenset[Attribute]]
    cost_lb: float


class PlanLowerBound:
    """Admissible cheapest-possible-cost bounds over logical sub-plans.

    Mirrors each planner of :class:`PhysicalOptimizer`, keeping every
    cost term that *all* physical options of a node must pay and dropping
    only the terms that depend on which child option is chosen:

    * cardinalities, widths and UDF CPU are exact (bound stats equal the
      estimates by construction);
    * network terms for partitioned Reduce/Match/CoGroup inputs are
      charged only when no *possible* child partition group is compatible
      with the key — then every option genuinely repartitions;
    * Match/Cross take the minimum over their repartition/broadcast
      variants, each variant itself relaxed as above.

    Every cost formula is monotone non-decreasing in the terms kept, so
    each node's bound is at most any option's ``cost_self`` plus its
    children's bounds; by induction ``bound(root)`` never exceeds the
    cheapest physical plan's true cost.  Entries are memoized in
    ``memo.bounds`` (dirty-spine invalidated, since bounds depend on the
    subtree's hints and statistics exactly like estimates do).
    """

    def __init__(
        self,
        ctx: PlanContext,
        estimator: CardinalityEstimator,
        params: CostParams,
        memo: Memo,
    ) -> None:
        self.ctx = ctx
        self.est = estimator
        self.params = params
        self._bounds = memo.bounds
        # Bound writes defer dependency registration to the memo's pending
        # list: invalidate()/dependents_of() drain it before consulting the
        # index, so eviction stays exact while the per-entry hot path
        # skips the op-names walk.
        self._pending = memo._pending
        # Per-operator invariants (join keys as frozensets, write-filtered
        # repartition properties): one operator object appears in
        # thousands of distinct nodes, so these are hoisted per op.
        self._op_keys: dict = {}

    def bound(self, node: Node) -> float:
        """Admissible lower bound on the node's cheapest physical cost."""
        cached = self._bounds.get(node)
        if cached is None:
            cached = self._compute(node)
            self._bounds[node] = cached
            self._pending.append(node)
        return cached.cost_lb

    def entry(self, node: Node) -> BoundEntry:
        cached = self._bounds.get(node)
        if cached is None:
            cached = self._compute(node)
            self._bounds[node] = cached
            self._pending.append(node)
        return cached

    def _udf_cpu(self, node: Node, est: EstStats) -> float:
        hint = self.est.hints_for(node.op.name)
        params = self.params
        units = est.calls * hint.cpu_per_call + est.rows * params.record_overhead
        return params.cpu_seconds(units)

    def _compute(self, node: Node) -> BoundEntry:
        op = node.op
        params = self.params
        entries = tuple(self.entry(child) for child in node.children)
        stats_of = {
            child: entry.stats for child, entry in zip(node.children, entries)
        }.__getitem__
        est = self.est.bound_stats_via(node, stats_of)
        if isinstance(op, Source):
            if isinstance(op, MaterializedSource):
                # Exact: the single option is free and pre-partitioned.
                return BoundEntry(est, frozenset(op.partitioning), 0.0)
            return BoundEntry(est, RANDOM, params.disk_seconds(est.bytes))
        if isinstance(op, Sink):
            child = entries[0]
            return BoundEntry(est, child.possible, child.cost_lb)
        writes = self.ctx.props(op).writes
        if isinstance(op, MapOp):
            child = entries[0]
            cost = self._udf_cpu(node, est)
            return BoundEntry(
                est,
                _keep_partitionings(child.possible, writes),
                cost + child.cost_lb,
            )
        if isinstance(op, ReduceOp):
            child = entries[0]
            key = op.key_attrs()
            cost = 0.0
            if not _compatible(child.possible, key):
                cost += params.net_seconds(params.partition_bytes(child.stats.bytes))
            cost += params.cpu_seconds(params.sort_units(child.stats.rows))
            cost += params.disk_seconds(params.spill_bytes(child.stats.bytes))
            cost += self._udf_cpu(node, est)
            return BoundEntry(est, frozenset({key}), cost + child.cost_lb)
        if isinstance(op, MatchOp):
            left, right = entries
            keys = self._op_keys.get(op)
            if keys is None:
                keys = (
                    frozenset(op.left_key_attrs()),
                    frozenset(op.right_key_attrs()),
                    _keep_partitionings(
                        frozenset(
                            {
                                frozenset(op.left_key_attrs()),
                                frozenset(op.right_key_attrs()),
                            }
                        ),
                        writes,
                    ),
                )
                self._op_keys[op] = keys
            lkey, rkey, repart_possible = keys
            sides = (left, right)
            # (a) repartition hash join: per-side net only when no possible
            # child partitioning is compatible (then every option pays it);
            # build/probe/spill terms are exact in the child estimates.
            self_lb = 0.0
            for child, key in ((left, lkey), (right, rkey)):
                if not _compatible(child.possible, key):
                    self_lb += params.net_seconds(
                        params.partition_bytes(child.stats.bytes)
                    )
            build = 0 if left.stats.bytes <= right.stats.bytes else 1
            probe = 1 - build
            self_lb += params.cpu_seconds(
                sides[build].stats.rows * params.build_unit
                + sides[probe].stats.rows * params.probe_unit
            )
            self_lb += params.disk_seconds(
                params.spill_bytes(sides[build].stats.bytes)
            )
            # (b)/(c) broadcast variants are exact in the child estimates.
            for build_side in (0, 1):
                b = sides[build_side].stats
                p = sides[1 - build_side].stats
                cost = params.net_seconds(params.broadcast_bytes(b.bytes))
                cost += params.cpu_seconds_single(b.rows * params.build_unit)
                cost += params.cpu_seconds(p.rows * params.probe_unit)
                cost += params.disk_seconds(
                    params.spill_bytes(b.bytes * params.degree)
                )
                if cost < self_lb:
                    self_lb = cost
            possible = repart_possible | _keep_partitionings(
                left.possible | right.possible, writes
            )
            return BoundEntry(
                est,
                possible,
                self_lb
                + self._udf_cpu(node, est)
                + left.cost_lb
                + right.cost_lb,
            )
        if isinstance(op, CrossOp):
            left, right = entries
            self_lb = min(
                params.net_seconds(params.broadcast_bytes(side.stats.bytes))
                for side in (left, right)
            )
            self_lb += params.cpu_seconds(est.calls * params.cross_unit)
            self_lb += self._udf_cpu(node, est)
            possible = _keep_partitionings(left.possible | right.possible, writes)
            return BoundEntry(
                est, possible, self_lb + left.cost_lb + right.cost_lb
            )
        if isinstance(op, CoGroupOp):
            left, right = entries
            keys = self._op_keys.get(op)
            if keys is None:
                keys = (
                    frozenset(op.left_key_attrs()),
                    frozenset(op.right_key_attrs()),
                )
                self._op_keys[op] = keys
            lkey, rkey = keys
            cost = 0.0
            for child, key in ((left, lkey), (right, rkey)):
                if not _compatible(child.possible, key):
                    cost += params.net_seconds(
                        params.partition_bytes(child.stats.bytes)
                    )
                cost += params.cpu_seconds(params.sort_units(child.stats.rows))
                cost += params.disk_seconds(params.spill_bytes(child.stats.bytes))
            cost += self._udf_cpu(node, est)
            return BoundEntry(
                est,
                _keep_partitionings(frozenset({lkey, rkey}), writes),
                cost + left.cost_lb + right.cost_lb,
            )
        raise OptimizationError(f"cannot bound {op!r}")  # pragma: no cover
