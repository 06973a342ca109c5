"""The data flow optimizer: reordering conditions, enumeration, costing.

Memoization architecture
------------------------

The optimizer is built around *hash-consed* plans
(:class:`repro.core.plan.Node` interns structurally-equal nodes into the
same object), which turns every plan-keyed table into an O(1) identity
lookup.  Three layers exploit this:

* **Enumeration** (:mod:`.enumeration`): the BFS closure keys its
  seen-set on interned nodes, and per-subtree neighbor lists are
  memoized — a subtree shared by hundreds of alternatives has its swap
  legality checked once.  Rule outcomes themselves are cached in
  :class:`.context.PlanContext` (``rule_cache``).
* **Cardinality** (:mod:`.cardinality`): estimates are cached per
  interned node and record widths per output-attribute set, so the
  estimator does no repeated work across alternatives.
* **Physical optimization** (:mod:`.physical`): a
  :class:`.physical.PhysicalOptimizer` costs against a first-class
  Volcano :class:`.memo.Memo` (interned sub-plan -> pruned physical
  options, plus memo-scoped estimator caches and the enumerated
  closure).  :class:`.optimizer.Optimizer` constructs one per call and
  reuses it across every enumerated alternative, so shared subtrees are
  physically optimized exactly once; binary operators additionally prune
  dominated child combinations with an exact branch-and-bound cut.
  ``Optimizer(reuse_memo=False)`` re-plans each alternative from
  scratch; results are identical by construction (see
  ``tests/optimizer/test_memoization.py``).
* **Incremental re-costing** (:mod:`.memo`): an explicit memo passed to
  ``Optimizer.optimize(memo=...)`` survives across calls and feedback
  rounds; ``Memo.invalidate(changed_ops)`` evicts only the dirty spine
  above operators whose hints or learned statistics changed, and
  ``Optimizer.reoptimize`` re-ranks bit-identically to a full rebuild.

Costing is serial: one shared-memo loop per ``optimize`` call.  For large
plan spaces, ``Optimizer(search="guided")`` costs only the frontier heads
its admissible lower bounds cannot rule out.
"""

from .cardinality import CardinalityEstimator, EstStats, Hints
from .conditions import kgp_kat, kgp_map, kgp_match_side, roc
from .context import PlanContext
from .cost import CostParams
from .enumeration import (
    count_alternatives,
    enum_alternatives_chain,
    enumerate_flows,
    iter_flows,
)
from .memo import Memo
from .optimizer import (
    OptimizationResult,
    Optimizer,
    RankedPlan,
    SearchStats,
    optimize,
)
from .physical import (
    BoundEntry,
    LocalStrategy,
    PhysicalOptimizer,
    PhysNode,
    PlanLowerBound,
    Ship,
    ShipKind,
    optimize_physical,
)
from .rules import (
    can_exchange_unary_binary,
    can_rotate,
    can_swap_unary_unary,
    neighbors,
)

__all__ = [
    "BoundEntry",
    "CardinalityEstimator",
    "CostParams",
    "EstStats",
    "Hints",
    "LocalStrategy",
    "Memo",
    "OptimizationResult",
    "Optimizer",
    "PhysNode",
    "PhysicalOptimizer",
    "PlanContext",
    "PlanLowerBound",
    "RankedPlan",
    "SearchStats",
    "Ship",
    "ShipKind",
    "can_exchange_unary_binary",
    "can_rotate",
    "can_swap_unary_unary",
    "count_alternatives",
    "enum_alternatives_chain",
    "enumerate_flows",
    "iter_flows",
    "kgp_kat",
    "kgp_map",
    "kgp_match_side",
    "neighbors",
    "optimize",
    "optimize_physical",
    "roc",
]
