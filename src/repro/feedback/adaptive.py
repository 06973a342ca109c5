"""The adaptive re-optimization loop: optimize, execute, learn, repeat.

Each round mirrors how a feedback-driven optimizer serves traffic:

1. **optimize** the workload with a :class:`FeedbackEstimator` over the
   current statistics store (round 0 on a cold store is bit-identical to
   the plain optimizer — nothing learned yet, nothing changes);
2. **execute** the estimator's pick plus rank-spread evaluation picks on
   the engine with an :class:`ObservationCollector` attached;
3. **measure** estimate quality (per-node q-error of the round's own
   estimates against what execution observed);
4. **ingest** the observations into the store — learned hints, exact
   per-signature cardinalities, source stats, measured plan runtimes;
5. **choose** the round's pick with *decision-time* knowledge — the
   store as it stood when the round optimized, i.e. what the system
   would deploy entering this round.  With no measurements yet (a cold
   round 0) the pick is the estimator's rank-1 plan, exactly the
   feedback-free behavior.  Once measurements exist, the pick is the
   measured-fastest alternative: a plan observed to be slower is never
   re-deployed on the strength of a flattering estimate, and estimated
   costs are never compared against measured seconds across plans
   (estimates carry systematic model error — skew, sort constants —
   that would otherwise let optimistic estimates perpetually outbid
   real measurements).  Exploration comes from the estimator instead:
   its rank-1 pick under the latest learned statistics is always
   executed, so an alternative that learning re-ranks upward gets
   measured and can win the deployment on evidence the next round.

The loop stops at a fixed point (the estimator's pick and the chosen
pick both repeat) or after a round limit.  The classic payoff: when
cardinality mis-estimates make round 0 pick a plan that is *not* the
measured-fastest, one feedback round moves the pick to (or strictly
toward) the measured-fastest alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import FeedbackError
from ..core.plan import Node, body as plan_body, signature_key
from ..core.udf import AnnotationMode
from ..engine.executor import Engine, ExecutionResult
from ..obs.tracer import NOOP_TRACER
from ..optimizer.cardinality import CardinalityEstimator, Hints
from ..optimizer.context import PlanContext
from ..optimizer.cost import CostParams
from ..optimizer.optimizer import OptimizationResult, Optimizer, RankedPlan
from ..workloads.base import Workload
from .estimator import FeedbackEstimator, QErrorReport, qerror_report
from .midquery import (
    DEFAULT_SWITCH_THRESHOLD,
    MidQueryReoptimizer,
    SwitchDecision,
)
from .observation import ObservationCollector
from .store import StatisticsStore


@dataclass(slots=True)
class ExecutedRound:
    """One plan executed during a feedback round."""

    plan: RankedPlan
    seconds: float
    result: ExecutionResult


@dataclass(slots=True)
class AdaptiveRound:
    """Everything one optimize-execute-learn round produced."""

    index: int  # 0 = cold round, 1.. = feedback rounds
    optimization: OptimizationResult
    estimator_pick: RankedPlan  # rank-1 plan under this round's estimates
    pick: RankedPlan  # chosen plan after measured-runtime preference
    pick_seconds: float  # modeled runtime of the chosen plan
    pick_measured_rank: int  # 1 = fastest among all measured plans so far
    pick_wall_seconds: float = 0.0  # wall-clock of the chosen plan's run
    executed: list[ExecutedRound] = field(default_factory=list)
    qerror: QErrorReport = field(default_factory=lambda: QErrorReport({}))
    converged: bool = False
    # Boundary decisions made while executing the deployed pick under
    # mid-query re-optimization (empty when the feature is off).
    midquery: list[SwitchDecision] = field(default_factory=list)


@dataclass(slots=True)
class AdaptiveReport:
    """Outcome of a full adaptive-optimization run."""

    workload: str
    rounds: list[AdaptiveRound] = field(default_factory=list)

    @property
    def final(self) -> AdaptiveRound:
        return self.rounds[-1]

    @property
    def converged(self) -> bool:
        return self.final.converged

    def describe(self) -> str:
        lines = [f"adaptive optimization — {self.workload}"]
        for r in self.rounds:
            lines.append(
                f"  round {r.index}: pick est-rank={r.pick.rank} "
                f"measured {r.pick_seconds:.3f}s (measured-rank {r.pick_measured_rank}, "
                f"wall {r.pick_wall_seconds * 1e3:.1f}ms), "
                f"q-error median {r.qerror.median:.3f} max {r.qerror.max:.3f}"
                f"{'  [converged]' if r.converged else ''}"
            )
            if r.midquery:
                switches = sum(1 for d in r.midquery if d.switched)
                lines.append(
                    f"    mid-query: {len(r.midquery)} boundaries, "
                    f"{switches} switch(es)"
                )
        return "\n".join(lines)


class AdaptiveOptimizer:
    """Drives the optimize -> execute -> observe -> re-optimize loop.

    Re-optimization is *incremental*: the first round's optimization
    leaves its :class:`~repro.optimizer.memo.Memo` — physical options,
    estimates, and the enumerated closure — in place, and every later
    round first invalidates only the dirty spine above the operators
    whose learned statistics actually changed (the diff of the store's
    :meth:`~repro.feedback.store.StatisticsStore.estimator_view` across
    the round's ingests), then re-costs just those entries.  Results are
    bit-identical to rebuilding from scratch each round; a converged
    round (no view change) re-costs nothing.
    """

    def __init__(
        self,
        workload: Workload,
        store: StatisticsStore | None = None,
        mode: AnnotationMode = AnnotationMode.SCA,
        params: CostParams | None = None,
        picks: int = 5,
        streaming: bool = True,
        midquery: bool = False,
        switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
        engine_jobs: int = 1,
        tracer=None,
    ) -> None:
        self.workload = workload
        self.store = store if store is not None else StatisticsStore()
        # A warm store learned on different data (another scale or seed)
        # must fail loudly instead of silently mis-estimating.
        self.store.check_compatible(workload.catalog)
        self.mode = mode
        self.params = params or workload.params
        self.picks = picks
        # One tracer threads the whole loop: optimizer spans, engine
        # stage/partition spans, and the store's ingest/sync spans all
        # land on the same timeline.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        if tracer is not None:
            self.store.tracer = tracer
        self.collector = ObservationCollector()
        self.engine = Engine(
            self.params,
            workload.true_costs,
            reuse_subtree_results=True,
            streaming=streaming,
            collector=self.collector,
            engine_jobs=engine_jobs,
            tracer=tracer,
        )
        self.optimizer = Optimizer(
            workload.catalog,
            workload.hints,
            mode,
            self.params,
            estimator_factory=self._make_estimator,
            tracer=tracer,
        )
        # Carried across rounds; invalidated along the dirty spine of the
        # estimator-view diff before each re-optimization.
        self.memo = self.optimizer.new_memo()
        self._view = self.store.estimator_view()
        # In-flight path: when enabled, each round's deployed pick runs
        # stage-by-stage with suffix re-optimization at every boundary;
        # the controller shares this loop's store, so stage deltas land
        # mid-run and the round's bulk ingest dedupes them by run id.
        self.midquery: MidQueryReoptimizer | None = None
        if midquery:
            if not streaming:
                raise FeedbackError(
                    "mid-query re-optimization executes pipeline stages; "
                    "it requires the streaming engine"
                )
            self.midquery = MidQueryReoptimizer(
                workload.catalog,
                workload.hints,
                mode,
                self.params,
                store=self.store,
                switch_threshold=switch_threshold,
                tracer=tracer,
            )

    def _make_estimator(
        self, ctx: PlanContext, hints: dict[str, Hints]
    ) -> CardinalityEstimator:
        return FeedbackEstimator(ctx, hints, self.store)

    # -- the loop ----------------------------------------------------------

    def run(self, feedback_rounds: int = 1) -> AdaptiveReport:
        """Round 0 plus up to ``feedback_rounds`` re-optimization rounds."""
        if feedback_rounds < 0:
            raise FeedbackError(
                f"feedback_rounds must be >= 0, got {feedback_rounds}"
            )
        report = AdaptiveReport(workload=self.workload.name)
        previous: AdaptiveRound | None = None
        for index in range(feedback_rounds + 1):
            round_span = self.tracer.span(
                "feedback.round", category="feedback", round=index
            )
            with round_span:
                round_ = self._run_round(index)
            if previous is not None:
                round_.converged = (
                    _plan_key(round_.pick.body) == _plan_key(previous.pick.body)
                    and _plan_key(round_.estimator_pick.body)
                    == _plan_key(previous.estimator_pick.body)
                )
            round_span.set(
                pick_rank=round_.pick.rank,
                executed=len(round_.executed),
                converged=round_.converged,
            )
            self.tracer.count("feedback.rounds")
            report.rounds.append(round_)
            previous = round_
            if round_.converged:
                break
        return report

    def _run_round(self, index: int) -> AdaptiveRound:
        # Incorporate any foreign commits to a shared backend first, so
        # this round optimizes over the freshest learned statistics; the
        # dirty-spine diff below evicts exactly the affected memo
        # entries.  Backend-less (and single-writer) runs see an empty
        # diff and proceed bit-identically to the seed loop.
        self.store.sync()
        fresh_view = self.store.estimator_view()
        foreign_changed = {
            name
            for name in fresh_view.keys() | self._view.keys()
            if fresh_view.get(name) != self._view.get(name)
        }
        if foreign_changed:
            self._view = fresh_view
            with self.tracer.span(
                "optimizer.invalidate",
                category="optimizer",
                changed=len(foreign_changed),
            ) as span:
                evicted = self.memo.invalidate(foreign_changed)
            span.set(evicted=evicted)
            self.tracer.count("optimizer.memo_evictions", evicted)
        optimization = self.optimizer.optimize(self.workload.plan, memo=self.memo)
        estimator_pick = optimization.best
        # Deployment decision uses what the store knew when this round
        # optimized — the round's own executions inform the *next* round.
        pick = self._choose(optimization, estimator_pick)

        executed: list[ExecutedRound] = []
        seen: dict[str, ExecutedRound] = {}
        mq_start = (
            len(self.midquery.decisions) if self.midquery is not None else 0
        )

        def execute(plan: RankedPlan) -> ExecutedRound:
            if self.midquery is not None and plan.body is pick.body:
                # The deployment runs stage-by-stage with in-flight suffix
                # re-optimization; everything else stays a plain measured
                # execution (switching an evaluation run would conflate
                # exploration with the plan being measured).
                result = self.engine.execute_staged(
                    plan.physical, self.workload.data, self.midquery
                )
            else:
                result = self.engine.execute(plan.physical, self.workload.data)
            run = ExecutedRound(plan=plan, seconds=result.seconds, result=result)
            executed.append(run)
            seen[_plan_key(plan.body)] = run
            return run

        for plan in optimization.picks(self.picks):
            if _plan_key(plan.body) not in seen:
                execute(plan)
        # The estimator's pick is the explorer: always measured, so a plan
        # that learning re-ranked upward earns (or loses) the deployment
        # on evidence.  The deployed pick is re-measured too, keeping its
        # store entry fresh under the staleness horizon.
        for plan in (estimator_pick, pick):
            if _plan_key(plan.body) not in seen:
                execute(plan)

        # Estimate quality is judged *before* learning from this round:
        # the cached estimates are exactly what ranked the plans above.
        estimator = self.optimizer.last_estimator
        bodies = {_plan_key(run.plan.body): run.plan.body for run in executed}
        qerror = qerror_report(estimator, self.collector.executions, bodies)

        for execution in self.collector.executions:
            self.store.ingest(execution)
        self.collector.clear()

        # Dirty-spine invalidation for the next round: evict exactly the
        # memo entries whose subtree contains an operator whose learned
        # view this round's ingests changed.  Everything else — and the
        # enumerated closure — is reused verbatim by the next optimize.
        view = self.store.estimator_view()
        changed = {
            name
            for name in view.keys() | self._view.keys()
            if view.get(name) != self._view.get(name)
        }
        self._view = view
        if changed:
            with self.tracer.span(
                "optimizer.invalidate",
                category="optimizer",
                changed=len(changed),
            ) as span:
                evicted = self.memo.invalidate(changed)
            span.set(evicted=evicted)
            self.tracer.count("optimizer.memo_evictions", evicted)

        pick_run = seen[_plan_key(pick.body)]
        pick_seconds = pick_run.seconds
        return AdaptiveRound(
            index=index,
            optimization=optimization,
            estimator_pick=estimator_pick,
            pick=pick,
            pick_seconds=pick_seconds,
            pick_measured_rank=self._measured_rank(pick_seconds),
            pick_wall_seconds=pick_run.result.wall_seconds,
            executed=executed,
            qerror=qerror,
            midquery=(
                list(self.midquery.decisions[mq_start:])
                if self.midquery is not None
                else []
            ),
        )

    # -- pick selection ----------------------------------------------------

    def _choose(
        self, optimization: OptimizationResult, estimator_pick: RankedPlan
    ) -> RankedPlan:
        """Measured-fastest known alternative; estimator pick on a cold store.

        Measured seconds and estimated costs are never compared across
        plans: estimates carry systematic model error, so an optimistic
        estimate could outbid a real measurement forever.  Ranked order
        (ascending estimated cost) breaks exact measurement ties
        deterministically via strict <.
        """
        best: RankedPlan | None = None
        best_seconds = 0.0
        for plan in optimization.ranked:
            seconds = self.store.plan_seconds(_plan_key(plan.body))
            if seconds is None:
                continue
            if best is None or seconds < best_seconds:
                best, best_seconds = plan, seconds
        return best if best is not None else estimator_pick

    def _measured_rank(self, seconds: float) -> int:
        """1 + number of plans measured strictly faster than ``seconds``."""
        faster = sum(
            1
            for plan in self.store.plans.values()
            if self.store.plan_seconds(plan.key) is not None
            and plan.seconds < seconds - 1e-12
        )
        return faster + 1


def _plan_key(node: Node) -> str:
    return signature_key(plan_body(node))
