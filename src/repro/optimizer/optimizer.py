"""End-to-end optimizer driver (Section 7.1's prototype pipeline).

The optimization process mirrors the paper's prototype: obtain UDF
properties (manual annotations or SCA), enumerate all valid reordered data
flows, call the cost-based physical optimizer on each alternative, and
rank the resulting execution plans by estimated cost.

Two search strategies share that pipeline.  ``search="eager"`` (the
reference) costs every alternative and sorts.  ``search="guided"`` runs a
best-first search: alternatives stream out of the generator-based
enumerator straight into a priority frontier ordered by an admissible
lower bound (:class:`~repro.optimizer.physical.PlanLowerBound`), only the
frontier head is physically costed, and the search stops as soon as the
requested top-``k`` completed plans are provably cheaper — under the
eager tie-break — than every open node's bound.  The two strategies
return bit-identical plans for the guaranteed prefix; guided simply
refuses to cost the part of the closure that cannot matter.
"""

from __future__ import annotations

import heapq
import random
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..core.catalog import Catalog
from ..core.errors import OptimizationConfigError, OptimizationError
from ..core.plan import Node, body as plan_body, signature
from ..core.udf import AnnotationMode
from ..obs.tracer import NOOP_TRACER, clock
from .cardinality import CardinalityEstimator, Hints
from .context import PlanContext
from .cost import CostParams
from .enumeration import iter_flows
from .memo import Memo
from .physical import PhysicalOptimizer, PhysNode, PlanLowerBound


@dataclass(frozen=True, slots=True)
class SearchStats:
    """Work accounting for one :meth:`Optimizer.optimize` call.

    ``expanded`` counts logical alternatives generated into the search
    (the frontier for guided, the sampled closure for eager); ``costed``
    counts alternatives physically optimized; ``pruned`` is the open
    frontier the guided termination rule never had to cost;
    ``bounds_computed`` counts fresh lower-bound entries;
    ``estimate_calls`` counts cardinality-estimate cache misses spent.
    All five are exported as ``optimizer.search.*`` / ``optimizer.estimates``
    counters through :mod:`repro.obs`.
    """

    search: str
    expanded: int
    costed: int
    pruned: int
    bounds_computed: int
    estimate_calls: int


@dataclass(frozen=True, slots=True)
class RankedPlan:
    """One enumerated alternative with its physical plan and cost rank."""

    rank: int  # 1 = cheapest estimated plan
    body: Node
    physical: PhysNode

    @property
    def cost(self) -> float:
        return self.physical.cost_total


@dataclass(slots=True)
class OptimizationResult:
    """Everything the experiments need about one optimization run."""

    original_body: Node
    ranked: list[RankedPlan]  # ascending estimated cost
    enumeration_seconds: float
    physical_seconds: float
    #: Search-work accounting (expanded/costed/pruned/bounds/estimates).
    search_stats: SearchStats | None = None
    _rank_index: dict[Node, int] | None = field(default=None, repr=False)

    @property
    def plan_count(self) -> int:
        return len(self.ranked)

    @property
    def best(self) -> RankedPlan:
        return self.ranked[0]

    def rank_of(self, body: Node) -> int:
        # Interned nodes make the common lookup an O(1) identity hit; keying
        # on the node (not its signature) keeps distinct plans distinct even
        # when operators share names across the ranked list.
        if self._rank_index is None:
            self._rank_index = {plan.body: plan.rank for plan in self.ranked}
        hit = self._rank_index.get(body)
        if hit is not None:
            return hit
        # Fallback for bodies built from different operator objects: first
        # structural (signature) match in rank order, the legacy behavior.
        wanted = signature(body)
        for plan in self.ranked:
            if signature(plan.body) == wanted:
                return plan.rank
        raise KeyError("plan not among the enumerated alternatives")

    def picks(self, count: int = 10) -> list[RankedPlan]:
        """Plans picked at regular rank intervals (the Figure 5/6 protocol)."""
        n = len(self.ranked)
        if count <= 0:
            return []
        if n <= count:
            return list(self.ranked)
        if count == 1:
            # A single pick has no interval to spread over: the rank-1 plan.
            return [self.ranked[0]]
        picks = []
        for i in range(count):
            rank_index = round(i * (n - 1) / (count - 1))
            picks.append(self.ranked[rank_index])
        return picks


class Optimizer:
    """Enumerate + physically optimize + rank.

    With ``reuse_memo`` (the default) a single :class:`PhysicalOptimizer`
    — and hence a single Volcano :class:`~repro.optimizer.memo.Memo` of
    interned sub-plan -> physical options — is shared across every
    enumerated alternative, so a subtree occurring in hundreds of
    alternatives is planned once.  ``reuse_memo=False`` re-plans each
    alternative from scratch (the reference path; results are identical,
    just slower).

    **Incremental re-costing.**  :meth:`optimize` accepts an explicit
    ``memo`` (see :meth:`new_memo`) whose surviving entries — options,
    estimates, and the enumerated closure — are reused verbatim; after a
    hint or statistics change, call :meth:`reoptimize` (or
    :meth:`~repro.optimizer.memo.Memo.invalidate` yourself) so the dirty
    spine above the changed operators is evicted first.  By default every
    :meth:`optimize` call builds a fresh memo, so one ``Optimizer``
    instance is safely re-entrant across plans and repeated calls.

    **Search strategies.**  ``search="eager"`` (the default and the
    parity reference) costs every candidate and sorts.  ``search="guided"``
    runs the best-first search of :meth:`_optimize_guided`: candidates
    stream into a frontier ordered by an admissible lower bound
    (:class:`~repro.optimizer.physical.PlanLowerBound`), only frontier
    heads are costed, and the search stops once the requested ``top_k``
    prefix is provably final — returning the bit-identical top-``k``
    eager would, at a small fraction of the costing (and estimation)
    work.  ``top_k`` trims eager's ranking the same way, so the two
    strategies stay interchangeable.

    **Plan-space sampling.**  ``max_alternatives=N`` ranks a deterministic
    sample of the closure — the implemented flow plus ``N - 1``
    alternatives reservoir-sampled without replacement by ``sample_seed``
    *during* expansion (the closure never materializes) — for flows
    whose closure explodes; the sampled alternatives are still costed
    through the shared memo, whose branch-and-bound cut keeps each
    costing cost-bounded.  ``None`` (the default) ranks the full closure.

    ``estimator_factory`` is the cardinality-estimation injection point:
    it is called once per :meth:`optimize` with ``(ctx, hints)`` and must
    return a :class:`CardinalityEstimator` (or subclass — the feedback
    subsystem injects a learned-statistics estimator here).  The default
    constructs a plain :class:`CardinalityEstimator`; with no factory the
    optimization pipeline is bit-identical to the feedback-free seed.
    """

    def __init__(
        self,
        catalog: Catalog,
        hints: dict[str, Hints] | None = None,
        mode: AnnotationMode = AnnotationMode.SCA,
        params: CostParams | None = None,
        reuse_memo: bool = True,
        estimator_factory: Callable[
            [PlanContext, dict[str, Hints]], CardinalityEstimator
        ]
        | None = None,
        max_alternatives: int | None = None,
        sample_seed: int = 0,
        search: str = "eager",
        top_k: int | None = None,
        tracer=None,
    ) -> None:
        if max_alternatives is not None and max_alternatives < 1:
            raise OptimizationConfigError(
                f"max_alternatives must be None or >= 1, got {max_alternatives}"
            )
        if search not in ("eager", "guided"):
            raise OptimizationConfigError(
                f"search must be 'eager' or 'guided', got {search!r}"
            )
        if search == "guided" and not reuse_memo:
            raise OptimizationConfigError(
                "search='guided' requires reuse_memo=True: the bound table "
                "lives in the shared memo"
            )
        if top_k is not None and (
            not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1
        ):
            raise OptimizationConfigError(
                f"top_k must be None or an integer >= 1, got {top_k!r}"
            )
        self.catalog = catalog
        self.hints = hints or {}
        self.mode = mode
        self.params = params or CostParams()
        self.ctx = PlanContext(catalog, mode)
        self.reuse_memo = reuse_memo
        self.estimator_factory = estimator_factory or CardinalityEstimator
        self.max_alternatives = max_alternatives
        self.sample_seed = sample_seed
        self.search = search
        #: Ranked-prefix length to guarantee.  ``None`` means "everything"
        #: for eager and "the rank-1 plan" for guided (a guided search
        #: asked for the full ranking would have to cost the whole
        #: closure, defeating it).
        self.top_k = top_k
        # Wall-clock observability (repro.obs); the tracer never touches
        # estimates, costs, or ranking — planning output is bit-identical
        # with tracing on or off.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        #: Estimator used by the most recent :meth:`optimize` call — the
        #: feedback loop reads its cached estimates for q-error reporting.
        self.last_estimator: CardinalityEstimator | None = None

    def new_memo(self) -> Memo:
        """A fresh memo wired to this optimizer's context.

        Pass it to :meth:`optimize` to carry costed state across calls;
        invalidate it (:meth:`reoptimize`) whenever the hints or learned
        statistics of some operators change in between.
        """
        return Memo(op_names=self.ctx.op_names)

    def optimize(self, plan: Node, memo: Memo | None = None) -> OptimizationResult:
        """Enumerate, cost, and rank every alternative of ``plan``.

        With an explicit ``memo``, surviving entries (and the cached
        closure) are reused and new entries are left in the memo for the
        next call; the caller owns invalidation across hint changes.
        Without one, a fresh memo is used per call.
        """
        if memo is not None and not self.reuse_memo:
            raise OptimizationError(
                "an explicit memo requires reuse_memo=True (the reference "
                "path re-plans every alternative from scratch)"
            )
        flow = plan_body(plan)
        tracer = self.tracer
        root_span = tracer.span("optimizer.optimize", category="optimizer")
        with root_span:
            estimator = self.estimator_factory(self.ctx, self.hints)
            self.last_estimator = estimator
            if self.search == "guided":
                ranked, stats, enum_secs, phys_secs = self._optimize_guided(
                    flow, memo, estimator
                )
            else:
                ranked, stats, enum_secs, phys_secs = self._optimize_eager(
                    flow, memo, estimator
                )
        root_span.set(
            alternatives=stats.costed,
            best_cost=ranked[0].cost if ranked else 0.0,
        )
        tracer.count("optimizer.optimizations")
        tracer.count("optimizer.alternatives_costed", stats.costed)
        tracer.count("optimizer.search.expanded", stats.expanded)
        tracer.count("optimizer.search.costed", stats.costed)
        tracer.count("optimizer.search.pruned", stats.pruned)
        tracer.count("optimizer.search.bounds", stats.bounds_computed)
        tracer.count("optimizer.estimates", stats.estimate_calls)
        return OptimizationResult(
            original_body=flow,
            ranked=ranked,
            enumeration_seconds=enum_secs,
            physical_seconds=phys_secs,
            search_stats=stats,
        )

    def reoptimize(
        self, plan: Node, memo: Memo, changed_ops: Iterable[str]
    ) -> OptimizationResult:
        """Re-rank after a hint/statistics change to ``changed_ops``.

        Evicts the dirty spine above the changed operators from ``memo``
        and re-optimizes; entries whose subtrees contain no changed
        operator — and the enumerated closure — are reused verbatim.
        Bit-identical to a full rebuild with the same hints (pinned by
        the invalidation parity tests), at a fraction of the cost.
        """
        changed = tuple(changed_ops)
        with self.tracer.span(
            "optimizer.invalidate", category="optimizer", changed=len(changed)
        ) as span:
            evicted = memo.invalidate(changed)
        span.set(evicted=evicted)
        self.tracer.count("optimizer.invalidations")
        self.tracer.count("optimizer.memo_evictions", evicted)
        return self.optimize(plan, memo=memo)

    # -- internals ---------------------------------------------------------

    def _optimize_eager(
        self,
        flow: Node,
        memo: Memo | None,
        estimator: CardinalityEstimator,
    ) -> tuple[list[RankedPlan], SearchStats, float, float]:
        """The reference strategy: cost every candidate, sort, rank."""
        tracer = self.tracer
        t0 = clock()
        with tracer.span("optimizer.enumerate", category="optimizer") as enum_span:
            sampled = self._candidates(flow, memo)
        enum_span.set(sampled=len(sampled))
        t1 = clock()
        scored: list[tuple[float, Node, PhysNode]] = []
        with tracer.span(
            "optimizer.cost", category="optimizer", alternatives=len(sampled)
        ):
            if self.reuse_memo:
                shared_memo = memo if memo is not None else self.new_memo()
                shared_memo.bind(estimator)
                for alt, phys in self._cost_all(sampled, estimator, shared_memo):
                    scored.append((phys.cost_total, alt, phys))
            else:
                for alt in sampled:
                    with tracer.span(
                        "optimizer.alternative", category="optimizer"
                    ):
                        physical_optimizer = PhysicalOptimizer(
                            self.ctx, estimator, self.params
                        )
                        phys = physical_optimizer.optimize(alt)
                    scored.append((phys.cost_total, alt, phys))
        t2 = clock()
        # Stable sort: equal-cost plans keep enumeration order, identical
        # between the memo-reusing and reference paths.
        scored.sort(key=lambda item: item[0])
        ranked = [
            RankedPlan(rank=i + 1, body=alt, physical=phys)
            for i, (_, alt, phys) in enumerate(scored)
        ]
        if self.top_k is not None:
            ranked = ranked[: self.top_k]
        stats = SearchStats(
            search="eager",
            expanded=len(sampled),
            costed=len(sampled),
            pruned=0,
            bounds_computed=0,
            estimate_calls=estimator.estimate_calls,
        )
        return ranked, stats, t1 - t0, t2 - t1

    def _optimize_guided(
        self,
        flow: Node,
        memo: Memo | None,
        estimator: CardinalityEstimator,
    ) -> tuple[list[RankedPlan], SearchStats, float, float]:
        """Best-first search: cost only what the bound cannot rule out.

        Every candidate streams out of the generator-based enumerator into
        a frontier heap keyed by ``(lower_bound, discovery_index)``; only
        the head is physically costed.  Because the eager reference ranks
        by a stable sort — i.e. by the lexicographic key ``(true_cost,
        discovery_index)`` — and ``true_cost >= lower_bound``, an open
        node whose heap key exceeds the k-th completed plan's key can
        never enter the true top-k, and the heap pops in ascending key
        order, so the first such head terminates the search with the
        bit-identical top-k prefix eager would produce.
        """
        tracer = self.tracer
        k = self.top_k if self.top_k is not None else 1
        shared_memo = memo if memo is not None else self.new_memo()
        shared_memo.bind(estimator)
        bounder = PlanLowerBound(self.ctx, estimator, self.params, shared_memo)
        bounds_before = len(shared_memo.bounds)
        t0 = clock()
        with tracer.span("optimizer.enumerate", category="optimizer") as enum_span:
            frontier: list[tuple[float, int, Node]] = [
                (bounder.bound(alt), idx, alt)
                for idx, alt in enumerate(self._expand(flow, shared_memo))
            ]
            heapq.heapify(frontier)
        expanded = len(frontier)
        enum_span.set(sampled=expanded)
        t1 = clock()
        # Completed plans, kept sorted by (cost, discovery index) — the
        # eager tie-break.  Indices are unique, so tuple comparison never
        # reaches the (incomparable) Node/PhysNode elements.
        completed: list[tuple[float, int, Node, PhysNode]] = []
        with tracer.span(
            "optimizer.cost", category="optimizer", alternatives=expanded
        ):
            physical_optimizer = PhysicalOptimizer(
                self.ctx, estimator, self.params, memo=shared_memo
            )
            while frontier:
                # Settled: the k-th completed key beats every open bound.
                if len(completed) >= k and frontier[0][:2] > completed[k - 1][:2]:
                    break
                _, idx, alt = heapq.heappop(frontier)
                with tracer.span("optimizer.alternative", category="optimizer"):
                    phys = physical_optimizer.optimize(alt)
                insort(completed, (phys.cost_total, idx, alt, phys))
        t2 = clock()
        ranked = [
            RankedPlan(rank=i + 1, body=alt, physical=phys)
            for i, (_, _, alt, phys) in enumerate(completed[:k])
        ]
        stats = SearchStats(
            search="guided",
            expanded=expanded,
            costed=len(completed),
            pruned=len(frontier),
            bounds_computed=len(shared_memo.bounds) - bounds_before,
            estimate_calls=estimator.estimate_calls,
        )
        return ranked, stats, t1 - t0, t2 - t1

    def _expand(self, flow: Node, memo: Memo) -> Iterator[Node]:
        """Candidate stream for the guided search, in discovery order.

        Without sampling the closure is never materialized: candidates
        stream straight from :func:`iter_flows` (reusing — and growing —
        the memo's persistent neighbor cache), unless a prior eager call
        already cached the closure tuple.  With ``max_alternatives`` the
        deterministic reservoir sample is used, identical to eager's.
        """
        if self.max_alternatives is None:
            cached = memo.closures.get(flow)
            if cached is not None:
                return iter(cached)
            return iter_flows(flow, self.ctx, neighbor_memo=memo.neighbors)
        return iter(self._candidates(flow, memo))

    def _candidates(self, flow: Node, memo: Memo | None) -> tuple[Node, ...]:
        """The (possibly sampled) candidate tuple, cached in the memo.

        Swap legality and sampling depend on derived plan properties and
        the seed, never on hints, so memo-cached closures and samples
        stay valid across invalidations.
        """
        limit = self.max_alternatives
        neighbor_memo = memo.neighbors if memo is not None else None
        if limit is None:
            if memo is not None:
                cached = memo.closures.get(flow)
                if cached is not None:
                    return cached
            closure = tuple(
                iter_flows(flow, self.ctx, neighbor_memo=neighbor_memo)
            )
            if memo is not None:
                memo.closures[flow] = closure
            return closure
        key = (flow, limit, self.sample_seed)
        if memo is not None:
            cached_sample = memo.samples.get(key)
            if cached_sample is not None:
                return cached_sample
        sampled = self._reservoir(flow, limit, neighbor_memo)
        if memo is not None:
            memo.samples[key] = sampled
        return sampled

    def _reservoir(
        self,
        flow: Node,
        limit: int,
        neighbor_memo: dict[Node, tuple[Node, ...]] | None,
    ) -> tuple[Node, ...]:
        """Deterministic sample drawn *during* expansion (Algorithm R).

        The implemented flow is always kept; the remaining ``limit - 1``
        slots hold a uniform without-replacement sample of the rest of
        the closure, which therefore never materializes.  The result is
        ordered by discovery index, keeping equal-cost tie-breaks stable.
        """
        rng = random.Random(self.sample_seed)
        flows = iter_flows(flow, self.ctx, neighbor_memo=neighbor_memo)
        original = next(flows)
        keep = limit - 1
        reservoir: list[tuple[int, Node]] = []
        seen = 0
        for idx, alt in enumerate(flows, start=1):
            seen += 1
            if seen <= keep:
                reservoir.append((idx, alt))
                continue
            slot = rng.randrange(seen)
            if slot < keep:
                reservoir[slot] = (idx, alt)
        reservoir.sort()
        return (original, *(alt for _, alt in reservoir))

    def _cost_all(
        self,
        alternatives: tuple[Node, ...],
        estimator: CardinalityEstimator,
        memo: Memo,
    ) -> list[tuple[Node, PhysNode]]:
        """Cost alternatives, in order, against the shared memo."""
        physical_optimizer = PhysicalOptimizer(
            self.ctx, estimator, self.params, memo=memo
        )
        scored = []
        for alt in alternatives:
            with self.tracer.span("optimizer.alternative", category="optimizer"):
                scored.append((alt, physical_optimizer.optimize(alt)))
        return scored


def optimize(
    plan: Node,
    catalog: Catalog,
    hints: dict[str, Hints] | None = None,
    mode: AnnotationMode = AnnotationMode.SCA,
    params: CostParams | None = None,
) -> OptimizationResult:
    """One-call convenience wrapper around :class:`Optimizer`."""
    return Optimizer(catalog, hints, mode, params).optimize(plan)
