"""The incremental Memo: a first-class, invalidatable Volcano store.

PR 1 buried the Volcano memo — the interned-sub-plan -> pruned-physical-
options table — inside :class:`~repro.optimizer.physical.PhysicalOptimizer`,
which made it impossible to selectively invalidate or carry across
feedback rounds.  This module extracts it into a standalone subsystem
with two responsibilities:

**Ownership.**  A :class:`Memo` owns every piece of per-plan-space derived
state the optimizer computes: the physical options table, the cardinality
estimator's per-node estimate cache and per-attribute-set width cache
(bound into the estimator via :meth:`Memo.bind`, so invalidation reaches
them), and the enumerated closure of each optimized flow (plan legality is
hint-independent, so the closure never needs invalidating).

**Dirty-spine invalidation.**  Alongside the table the memo maintains a
reverse dependency index: operator name -> the memo entries whose logical
subtree contains that operator.  When feedback (or a user) changes the
hints, observations, or source statistics of some operators,
:meth:`Memo.invalidate` evicts exactly the entries on the spine *above*
the changed operators — both physical options and cached estimates —
so the next :meth:`Optimizer.optimize(memo=...)
<repro.optimizer.optimizer.Optimizer.optimize>` call re-costs the dirty
spine and reuses everything else verbatim.  Because an estimate (and
hence a cost) depends only on the operators inside its node's subtree —
their hints, per-signature observations, and source statistics — an entry
containing no changed operator is bit-identical under the new estimator,
which is what makes the reuse exact (pinned by the invalidation parity
tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..core.plan import Node
from .cardinality import CardinalityEstimator, EstStats

if TYPE_CHECKING:  # pragma: no cover - import cycle (physical imports memo)
    from .physical import BoundEntry, PhysNode


class _RegisteringDict(dict):
    """Node-keyed cache that registers every new key in the memo's index.

    The cardinality estimator writes ``cache[node] = value`` on its own;
    routing those writes through the memo's dependency index keeps
    :meth:`Memo.invalidate` authoritative over the cache without the
    writer knowing the memo exists.
    """

    __slots__ = ("_memo",)

    def __init__(self, memo: "Memo") -> None:
        super().__init__()
        self._memo = memo

    def __setitem__(self, key: Node, value) -> None:
        self._memo._register(key)
        super().__setitem__(key, value)


class Memo:
    """Invalidatable store of the Volcano search's derived state.

    ``op_names`` maps a plan node to the frozenset of operator names in
    its subtree; pass a context-level memoized one
    (:meth:`~repro.optimizer.context.PlanContext.op_names`) to share the
    name cache across memos and feedback rounds — a standalone memo
    falls back to an internal memoized walk.
    """

    def __init__(
        self,
        op_names: Callable[[Node], frozenset[str]] | None = None,
    ) -> None:
        #: Interned logical sub-plan -> pruned physical options.
        self.table: dict[Node, tuple["PhysNode", ...]] = {}
        #: Interned logical sub-plan -> cached cardinality estimate.
        self.est_cache: dict[Node, EstStats] = _RegisteringDict(self)
        #: Output attribute set -> record width (catalog-derived, hence
        #: hint-independent: never invalidated).
        self.width_cache: dict[frozenset, float] = {}
        #: Optimized flow -> its enumerated closure.  Swap legality does
        #: not depend on hints, so re-optimization reuses the closure.
        self.closures: dict[Node, tuple[Node, ...]] = {}
        #: Interned node -> its legal single-swap neighbors.  These are the
        #: partial-closure entries of the guided search: legality is
        #: hint-independent, so they survive :meth:`invalidate` and make
        #: re-search after a statistics change expand for free.
        self.neighbors: dict[Node, tuple[Node, ...]] = {}
        #: (flow, limit, seed) -> sampled alternative subset, drawn during
        #: expansion (reservoir).  Sampling is hint-independent, so cached
        #: samples survive :meth:`invalidate` and keep ``reoptimize``
        #: deterministic under ``max_alternatives``.
        self.samples: dict[tuple[Node, int, int], tuple[Node, ...]] = {}
        #: Interned logical sub-plan -> admissible lower-bound summary
        #: (:class:`~repro.optimizer.physical.BoundEntry`).  A bound
        #: depends on the subtree's statistics and hints exactly like an
        #: estimate does, so :meth:`invalidate` evicts it along the same
        #: dirty spine.  Writers (:class:`~repro.optimizer.physical.
        #: PlanLowerBound`) register keys lazily through ``_pending``,
        #: keeping the per-entry hot path free of the dependency-index
        #: walk.
        self.bounds: dict[Node, "BoundEntry"] = {}
        self._op_names = op_names if op_names is not None else self._names_of
        self._names: dict[Node, frozenset[str]] = {}
        # Reverse dependency index: operator name -> every node ever
        # registered whose subtree contains that operator.  "Contains" is
        # a stable property of an interned node, so eviction never needs
        # to unregister: the index may name evicted nodes (their pops
        # no-op on the next invalidation) and re-stored nodes re-register
        # with a single set lookup.
        self._registered: set[Node] = set()
        self._by_name: dict[str, set[Node]] = {}
        # Nodes awaiting registration: the index is only consulted by
        # invalidate()/dependents_of(), so bulk writers (the lower-bound
        # cache) append here and defer the per-name bookkeeping out of
        # the search's critical path.
        self._pending: list[Node] = []

    # -- table access ------------------------------------------------------

    def options(self, node: Node) -> tuple["PhysNode", ...] | None:
        return self.table.get(node)

    def store(self, node: Node, options: tuple["PhysNode", ...]) -> None:
        self._register(node)
        self.table[node] = options

    def __len__(self) -> int:
        return len(self.table)

    def size(self) -> int:
        """Total live derived-state entries (options, estimates, bounds).

        The planning server's memory accounting: closures/neighbors/
        samples are shared, hint-independent structure and comparatively
        small, so the three invalidatable tables are the figure that
        tracks a tenant's warm-state footprint.
        """
        return len(self.table) + len(self.est_cache) + len(self.bounds)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.table)

    def __contains__(self, node: object) -> bool:
        return node in self.table

    # -- estimator binding -------------------------------------------------

    def bind(self, estimator: CardinalityEstimator) -> None:
        """Make ``estimator`` read and write this memo's caches.

        Estimates become memo-scoped: they survive across optimize calls
        and feedback rounds exactly as long as the options that were
        costed from them, and :meth:`invalidate` evicts both together.
        """
        estimator.use_caches(self.est_cache, self.width_cache)

    # -- dependency index --------------------------------------------------

    def _register(self, node: Node) -> None:
        if node in self._registered:
            return
        self._registered.add(node)
        for name in self._op_names(node):
            self._by_name.setdefault(name, set()).add(node)

    def _names_of(self, node: Node) -> frozenset[str]:
        """Fallback subtree-name derivation (memoized per interned node)."""
        got = self._names.get(node)
        if got is None:
            if node.children:
                got = frozenset({node.op.name}).union(
                    *(self._names_of(c) for c in node.children)
                )
            else:
                got = frozenset({node.op.name})
            self._names[node] = got
        return got

    def _drain_pending(self) -> None:
        if self._pending:
            for node in self._pending:
                self._register(node)
            self._pending.clear()

    def dependents_of(self, op_name: str) -> frozenset[Node]:
        """Every registered node whose subtree contains ``op_name``.

        Registration is permanent (containment is a stable property of an
        interned node), so the result may include currently-evicted nodes.
        """
        self._drain_pending()
        return frozenset(self._by_name.get(op_name, ()))

    # -- invalidation ------------------------------------------------------

    def invalidate(self, changed_ops: Iterable[str]) -> int:
        """Evict every entry whose subtree contains a changed operator.

        This is the dirty-spine walk: a changed operator invalidates its
        own entry and every entry *above* it (any node whose subtree
        contains it), while sibling subtrees — typically the overwhelming
        majority of a plan space's distinct sub-plans — stay cached.
        The physical options table, the estimate cache, and the guided
        search's bound cache are evicted; widths, closures, neighbors and
        samples are hint-independent and survive.  Returns the number of
        entries evicted.
        """
        self._drain_pending()
        victims: set[Node] = set()
        for name in changed_ops:
            nodes = self._by_name.get(name)
            if nodes:
                victims |= nodes
        evicted = 0
        table_pop = self.table.pop
        est_pop = self.est_cache.pop  # plain dict.pop: eviction, not a write
        bound_pop = self.bounds.pop
        for node in victims:
            hit = table_pop(node, None) is not None
            hit = (est_pop(node, None) is not None) or hit
            hit = (bound_pop(node, None) is not None) or hit
            if hit:
                evicted += 1
        return evicted
