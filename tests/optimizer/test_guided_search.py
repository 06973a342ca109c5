"""Guided (best-first) search parity and safety tests.

``Optimizer(search="guided")`` costs only frontier heads of a priority
queue ordered by an admissible lower bound, terminating as soon as the
top-``k`` prefix is provably final.  Everything here pins the contract
that makes the strategy usable as a drop-in serving path:

* The guided top-``k`` is *bit-identical* to the eager ranking's prefix
  — same plan bodies (object identity: plans are interned), same exact
  float costs, same physical trees — across all four paper workloads,
  under random hint perturbations (hypothesis), and again after a
  dirty-spine ``Memo.invalidate`` + re-search.
* Guided composes with plan-space sampling (``max_alternatives``)
  without changing results.
* The work counters (:class:`~repro.optimizer.optimizer.SearchStats`)
  prove guided actually prunes: costed < expanded, and far fewer
  cardinality-estimate cache misses than eager spends.
* Configuration errors (bad ``engine_jobs`` / ``search`` /
  ``top_k``, guided under feedback) raise subclasses of ``ValueError``
  so callers can catch them without importing repro error types.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnnotationMode
from repro.core.errors import ExecutionError, OptimizationConfigError
from repro.core.plan import body as plan_body, iter_nodes
from repro.core.operators import UdfOperator
from repro.bench.harness import run_experiment
from repro.engine import Engine
from repro.optimizer import Hints, Optimizer
from repro.workloads import (
    build_clickstream,
    build_q7,
    build_q15,
    build_textmining,
)

WORKLOADS = {
    "tpch_q15": build_q15(),
    "clickstream": build_clickstream(),
    "textmining": build_textmining(),
    "tpch_q7": build_q7(),
}


def assert_prefix_identical(guided, eager, k):
    """Guided's ranking must be the eager ranking's first ``k`` plans."""
    want = eager.ranked[:k]
    assert len(guided.ranked) == len(want)
    for g, w in zip(guided.ranked, want):
        assert g.rank == w.rank
        assert g.body is w.body  # interned plans: identity == structure
        assert g.cost == w.cost  # exact float equality
        assert g.physical.describe() == w.physical.describe()


def optimize_both(workload, k, hints=None, mode=AnnotationMode.SCA):
    hints = workload.hints if hints is None else hints
    eager = Optimizer(
        workload.catalog, hints, mode, workload.params
    ).optimize(workload.plan)
    guided = Optimizer(
        workload.catalog, hints, mode, workload.params,
        search="guided", top_k=k,
    ).optimize(workload.plan)
    return guided, eager


# -- parity ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("k", [1, 5])
def test_guided_matches_eager_prefix(name, k):
    workload = WORKLOADS[name]
    guided, eager = optimize_both(workload, k)
    assert_prefix_identical(guided, eager, k)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_guided_matches_eager_manual_mode(name):
    workload = WORKLOADS[name]
    guided, eager = optimize_both(workload, 3, mode=AnnotationMode.MANUAL)
    assert_prefix_identical(guided, eager, 3)


def udf_op_names(workload):
    return sorted(
        n.op.name
        for n in iter_nodes(plan_body(workload.plan))
        if isinstance(n.op, UdfOperator)
    )


hint_values = st.builds(
    Hints,
    selectivity=st.one_of(
        st.none(), st.floats(min_value=0.01, max_value=3.0, allow_nan=False)
    ),
    cpu_per_call=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    distinct_keys=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
)


@st.composite
def perturbed_cases(draw):
    """A workload, a hint perturbation for 1-3 of its UDFs, and a k."""
    name = draw(st.sampled_from(sorted(WORKLOADS)))
    ops = udf_op_names(WORKLOADS[name])
    changes = draw(
        st.dictionaries(st.sampled_from(ops), hint_values, min_size=1, max_size=3)
    )
    k = draw(st.integers(min_value=1, max_value=4))
    return name, changes, k


@given(perturbed_cases())
@settings(max_examples=10, deadline=None)
def test_guided_parity_under_random_hint_perturbations(case):
    """The admissibility of the bound is hint-independent: whatever the
    selectivities/CPU weights/key counts say, guided returns exactly the
    eager prefix — and keeps doing so after a dirty-spine invalidation
    re-search over the same memo."""
    name, changes, k = case
    workload = WORKLOADS[name]
    hints = {**workload.hints, **changes}
    guided_opt = Optimizer(
        workload.catalog, hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=k,
    )
    memo = guided_opt.new_memo()
    guided = guided_opt.optimize(workload.plan, memo=memo)
    eager = Optimizer(
        workload.catalog, hints, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    assert_prefix_identical(guided, eager, k)

    # A second perturbation re-searched over the invalidated memo must
    # again match an eager rebuild under the new hints exactly.
    more = {op: Hints(selectivity=1.3, cpu_per_call=2.0) for op in changes}
    hints2 = {**hints, **more}
    guided_opt.hints = hints2
    re_guided = guided_opt.reoptimize(workload.plan, memo, set(more))
    re_eager = Optimizer(
        workload.catalog, hints2, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    assert_prefix_identical(re_guided, re_eager, k)


def test_guided_top_k_beyond_space_returns_full_ranking():
    workload = WORKLOADS["textmining"]
    eager = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params
    ).optimize(workload.plan)
    space = eager.plan_count
    guided = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=space + 10,
    ).optimize(workload.plan)
    assert_prefix_identical(guided, eager, space)


# -- composition: sampling ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
def test_guided_matches_eager_under_sampling(seed):
    workload = WORKLOADS["tpch_q7"]
    kwargs = dict(max_alternatives=40, sample_seed=seed)
    eager = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        **kwargs,
    ).optimize(workload.plan)
    guided = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=3, **kwargs,
    ).optimize(workload.plan)
    assert eager.plan_count == 40
    assert_prefix_identical(guided, eager, 3)
    # and the sample itself is deterministic per seed
    again = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=3, **kwargs,
    ).optimize(workload.plan)
    assert_prefix_identical(guided, again, 3)


@pytest.mark.parametrize("k", [1, 4])
def test_guided_over_warm_eager_memo_matches_cold(k):
    """A guided search over a memo an eager call already filled reuses its
    closure and costed entries without changing the top-k prefix."""
    workload = WORKLOADS["tpch_q7"]
    eager_opt = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
    )
    memo = eager_opt.new_memo()
    eager = eager_opt.optimize(workload.plan, memo=memo)
    guided_opt = Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=k,
    )
    cold = guided_opt.optimize(workload.plan)
    warm = guided_opt.optimize(workload.plan, memo=memo)
    assert_prefix_identical(warm, eager, k)
    assert_prefix_identical(cold, eager, k)
    assert warm.search_stats.expanded == eager.plan_count

# -- work accounting -------------------------------------------------------


def test_guided_search_stats_prove_pruning():
    workload = WORKLOADS["tpch_q7"]
    guided, eager = optimize_both(workload, 1)
    gs, es = guided.search_stats, eager.search_stats
    assert gs.search == "guided" and es.search == "eager"
    # Same space expanded, but guided costed only a sliver of it.
    assert gs.expanded == es.expanded == eager.plan_count
    assert gs.costed < gs.expanded
    assert gs.costed + gs.pruned == gs.expanded
    assert es.costed == es.expanded and es.pruned == 0
    # Bounds were computed (one per distinct subtree of the space) and
    # bought a large reduction in estimation work.
    assert gs.bounds_computed > 0
    assert es.bounds_computed == 0
    assert gs.estimate_calls < es.estimate_calls


def test_search_stats_exported_as_counters():
    from repro.obs import Tracer

    workload = WORKLOADS["textmining"]
    tracer = Tracer()
    Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA, workload.params,
        search="guided", top_k=1, tracer=tracer,
    ).optimize(workload.plan)
    counters = tracer.metrics.counters
    for name in (
        "optimizer.search.expanded",
        "optimizer.search.costed",
        "optimizer.search.pruned",
        "optimizer.search.bounds",
        "optimizer.estimates",
    ):
        assert name in counters, name
    assert counters["optimizer.search.expanded"] == (
        counters["optimizer.search.costed"]
        + counters["optimizer.search.pruned"]
    )


# -- configuration errors --------------------------------------------------


def _optimizer_with_jobs(workload):
    return Optimizer(
        workload.catalog, workload.hints, AnnotationMode.SCA,
        workload.params, jobs=2,
    )


def _adaptive_with_jobs(workload):
    from repro.feedback import AdaptiveOptimizer

    return AdaptiveOptimizer(workload, jobs=2)


def _experiment_with_jobs(workload):
    return run_experiment(workload, picks=1, jobs=2)


@pytest.mark.parametrize(
    "build",
    [_optimizer_with_jobs, _adaptive_with_jobs, _experiment_with_jobs],
    ids=["optimizer", "adaptive", "run_experiment"],
)
def test_costing_layers_reject_jobs(build):
    # Plan costing has one serial path; no layer takes a worker count.
    with pytest.raises(TypeError, match="jobs"):
        build(WORKLOADS["textmining"])

@pytest.mark.parametrize("bad", [0, -1, 2.0, False, "2"])
def test_engine_jobs_validation_is_a_value_error(bad):
    workload = WORKLOADS["textmining"]
    with pytest.raises(ValueError, match="engine_jobs"):
        Engine(workload.params, workload.true_costs, engine_jobs=bad)
    with pytest.raises(ExecutionError):
        Engine(workload.params, workload.true_costs, engine_jobs=bad)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"search": "bestfirst"},
        {"search": "guided", "reuse_memo": False},
        {"top_k": 0},
        {"top_k": -3},
        {"top_k": 1.5},
        {"top_k": True},
    ],
)
def test_search_and_top_k_validation(kwargs):
    workload = WORKLOADS["textmining"]
    with pytest.raises(OptimizationConfigError):
        Optimizer(
            workload.catalog, workload.hints, AnnotationMode.SCA,
            workload.params, **kwargs,
        )


def test_guided_is_rejected_under_feedback_experiments():
    workload = WORKLOADS["textmining"]
    with pytest.raises(OptimizationConfigError, match="feedback"):
        run_experiment(workload, feedback_rounds=1, search="guided")
    # the config error is a ValueError too
    with pytest.raises(ValueError):
        run_experiment(workload, feedback_rounds=1, search="guided")


def test_guided_runs_through_the_harness():
    workload = WORKLOADS["clickstream"]
    guided = run_experiment(workload, search="guided", top_k=2)
    eager = run_experiment(workload)
    assert guided.plan_count == 2
    got = [(p.rank, p.estimated_cost) for p in guided.executed]
    want = [
        (p.rank, p.cost) for p in eager.optimization.ranked[:2]
    ]
    assert got == want
