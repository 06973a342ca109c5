"""Experiment harness implementing the paper's Section 7.3 protocol.

For a workload: enumerate all alternatives, rank them by estimated cost,
pick N plans at regular rank intervals, execute each on the simulated
engine, and report cost estimates and runtimes normalized by the rank-1
plan — exactly the procedure behind Figures 5, 6, and 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import OptimizationConfigError
from ..core.udf import AnnotationMode
from ..engine.executor import Engine, ExecutionResult
from ..feedback.adaptive import AdaptiveOptimizer, AdaptiveReport
from ..feedback.midquery import (
    DEFAULT_SWITCH_THRESHOLD,
    MidQueryExperiment,
    run_midquery,
)
from ..feedback.store import StatisticsStore
from ..optimizer.cost import CostParams
from ..optimizer.optimizer import OptimizationResult, Optimizer, RankedPlan
from ..workloads.base import Workload


@dataclass(slots=True)
class ExecutedPlan:
    rank: int
    estimated_cost: float
    runtime_seconds: float  # modeled (simulated) runtime
    runtime_label: str
    is_original: bool
    result: ExecutionResult

    @property
    def wall_seconds(self) -> float:
        """Measured wall-clock of this plan's execution."""
        return self.result.wall_seconds


@dataclass(slots=True)
class ExperimentOutcome:
    workload: str
    plan_count: int
    enumeration_seconds: float
    executed: list[ExecutedPlan] = field(default_factory=list)
    optimization: OptimizationResult | None = None
    # Populated only when the experiment ran with feedback rounds.
    feedback: AdaptiveReport | None = None
    # Populated only when the experiment ran with --midquery (no feedback
    # rounds); feedback runs carry decisions on their rounds instead.
    midquery: MidQueryExperiment | None = None

    @property
    def norm_costs(self) -> list[float]:
        base = self.executed[0].estimated_cost
        return [p.estimated_cost / base for p in self.executed]

    @property
    def norm_runtimes(self) -> list[float]:
        base = self.executed[0].runtime_seconds
        return [p.runtime_seconds / base for p in self.executed]

    @property
    def runtime_spread(self) -> float:
        times = [p.runtime_seconds for p in self.executed]
        return max(times) / min(times)

    def original_rank(self) -> int | None:
        for p in self.executed:
            if p.is_original:
                return p.rank
        return None


def run_experiment(
    workload: Workload,
    picks: int = 10,
    mode: AnnotationMode = AnnotationMode.SCA,
    params: CostParams | None = None,
    execute_all: bool = False,
    feedback_rounds: int = 0,
    stats_store: StatisticsStore | str | Path | None = None,
    stats_backend: str | None = None,
    midquery: bool = False,
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    engine_jobs: int = 1,
    search: str = "eager",
    top_k: int | None = None,
    tracer=None,
) -> ExperimentOutcome:
    """Optimize a workload, execute rank-picked plans, collect the outcome.

    With ``feedback_rounds > 0`` the optimization runs through the
    adaptive feedback loop (:class:`AdaptiveOptimizer`): runtime
    observations from each round's executions re-estimate the next, and
    the reported outcome is the final round's.  ``stats_store`` may be a
    live :class:`StatisticsStore` or a path — a path opens through the
    sniffed persistence backend (``.sqlite``/``.sqlite3``/``.db`` →
    sqlite-WAL, else JSON; ``stats_backend`` forces one), warm-starting
    from existing state, and every ingest commits transactionally so
    concurrent experiments can share the store.  With
    ``feedback_rounds=0`` and no store this is exactly the feedback-free
    protocol — the code path below is untouched.

    With ``midquery`` the rank-1 pick is additionally raced against
    itself under mid-query re-optimization (stage-by-stage execution with
    suffix re-planning at every boundary, switching when the estimated
    remaining cost improves by ``switch_threshold``); the comparison
    lands in ``outcome.midquery``.  Under feedback rounds, each round's
    deployed pick runs that way instead and the boundary decisions land
    on the round reports.

    ``engine_jobs > 1`` executes each plan's pipeline-stage partitions
    across a fork-based worker pool; records, per-op metrics, and modeled
    seconds are bit-identical to serial execution.

    ``search="guided"`` plans with the best-first, cost-guided search:
    only the top ``top_k`` plans (default 1) are produced — bit-identical
    to the eager prefix — so the rank-interval pick protocol degenerates
    to executing that guaranteed prefix.  Guided search is for the
    serving path; the experiment protocols that need the full ranking
    (feedback rounds, ``--all``) keep the eager default.

    ``tracer`` (a :class:`repro.obs.Tracer`) threads wall-clock spans
    through the optimizer, the engine, and — under feedback rounds — the
    statistics store and mid-query controller; the default no-op tracer
    leaves every result bit-identical.
    """
    if feedback_rounds > 0 or stats_store is not None:
        if search != "eager":
            raise OptimizationConfigError(
                "feedback experiments need the full ranking (rank-of-pick "
                "reporting); search='guided' is not supported with "
                "feedback_rounds/stats_store"
            )
        return _run_feedback_experiment(
            workload, picks, mode, params, execute_all, feedback_rounds,
            stats_store, stats_backend, midquery, switch_threshold,
            engine_jobs, tracer,
        )
    params = params or workload.params
    optimizer = Optimizer(
        workload.catalog, workload.hints, mode, params,
        search=search, top_k=top_k, tracer=tracer,
    )
    result = optimizer.optimize(workload.plan)
    # Rank-picked plans share most of their physical subtrees; reuse
    # their deterministic execution results across the picks.
    engine = Engine(
        params,
        workload.true_costs,
        reuse_subtree_results=True,
        engine_jobs=engine_jobs,
        tracer=tracer,
    )

    outcome = ExperimentOutcome(
        workload=workload.name,
        plan_count=result.plan_count,
        enumeration_seconds=result.enumeration_seconds,
        optimization=result,
    )
    chosen = result.ranked if execute_all else result.picks(picks)
    for plan in chosen:
        execution = engine.execute(plan.physical, workload.data)
        outcome.executed.append(
            ExecutedPlan(
                rank=plan.rank,
                estimated_cost=plan.cost,
                runtime_seconds=execution.seconds,
                runtime_label=execution.report.minutes_label(),
                # interned plans: structural equality is object identity
                is_original=plan.body is result.original_body,
                result=execution,
            )
        )
    if midquery:
        # The rank-1 pick is always the first chosen plan: reuse this
        # experiment's optimization and its already-measured execution
        # instead of re-enumerating the space and re-running the pick.
        outcome.midquery = run_midquery(
            workload,
            mode,
            params,
            switch_threshold=switch_threshold,
            optimization=result,
            baseline=(
                outcome.executed[0].result if outcome.executed else None
            ),
            engine_jobs=engine_jobs,
            tracer=tracer,
        )
    return outcome


def _run_feedback_experiment(
    workload: Workload,
    picks: int,
    mode: AnnotationMode,
    params: CostParams | None,
    execute_all: bool,
    feedback_rounds: int,
    stats_store: StatisticsStore | str | Path | None,
    stats_backend: str | None = None,
    midquery: bool = False,
    switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
    engine_jobs: int = 1,
    tracer=None,
) -> ExperimentOutcome:
    """The Section 7.3 protocol driven through the adaptive feedback loop."""
    params = params or workload.params
    if isinstance(stats_store, StatisticsStore):
        store = stats_store
    elif stats_store is not None:
        # Backend-attached: every ingest already committed transactionally,
        # so there is nothing left to save at the end.
        store = StatisticsStore.open(Path(stats_store), backend=stats_backend)
    else:
        store = StatisticsStore()
    adaptive = AdaptiveOptimizer(
        workload, store=store, mode=mode, params=params, picks=picks,
        midquery=midquery, switch_threshold=switch_threshold,
        engine_jobs=engine_jobs, tracer=tracer,
    )
    report = adaptive.run(feedback_rounds)
    final = report.final
    result = final.optimization

    outcome = ExperimentOutcome(
        workload=workload.name,
        plan_count=result.plan_count,
        enumeration_seconds=result.enumeration_seconds,
        optimization=result,
        feedback=report,
    )
    if execute_all:
        chosen = result.ranked
    else:
        chosen = result.picks(picks)
        chosen_bodies = {plan.body for plan in chosen}
        extras = [
            run.plan for run in final.executed if run.plan.body not in chosen_bodies
        ]
        chosen = sorted(chosen + extras, key=lambda plan: plan.rank)
    # The final round already executed (deterministically) most of the
    # chosen plans; reuse those results and run only genuinely new ones.
    prior = {run.plan.body: run.result for run in final.executed}
    for plan in chosen:
        execution = prior.get(plan.body)
        if execution is None:
            execution = adaptive.engine.execute(plan.physical, workload.data)
        outcome.executed.append(
            ExecutedPlan(
                rank=plan.rank,
                estimated_cost=plan.cost,
                runtime_seconds=execution.seconds,
                runtime_label=execution.report.minutes_label(),
                is_original=plan.body is result.original_body,
                result=execution,
            )
        )
    # The replays above were for reporting, not learning.
    adaptive.collector.clear()
    return outcome


def execute_plan(
    workload: Workload,
    plan: RankedPlan,
    params: CostParams | None = None,
    engine_jobs: int = 1,
) -> ExecutionResult:
    engine = Engine(
        params or workload.params, workload.true_costs, engine_jobs=engine_jobs
    )
    return engine.execute(plan.physical, workload.data)
