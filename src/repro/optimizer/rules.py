"""Pairwise reordering rules over plan trees (Section 4).

Three swap families cover every operator combination the paper proves:

* **S1 — unary/unary** (Theorems 1 and 2, Reduce/Reduce): two adjacent
  unary operators exchange positions.
* **S2 — unary/binary** (Theorems 3 and 4, invariant grouping, CoGroup
  via the tagged-union argument of Section 4.3.2): a unary operator above
  a binary one descends into one input side, or ascends back out of it.
* **S3 — binary/binary rotations** (Lemma 1 generalized to all Match and
  Cross combinations): ``u(v(A,B), C) -> v(A, u(B,C))`` and
  ``u(v(A,B), C) -> v(u(A,C), B)`` plus mirror images, which together
  yield bushy join orders.

``neighbors`` generates every plan reachable by one legal swap anywhere in
the tree; the enumeration module computes the closure.
"""

from __future__ import annotations

from typing import Iterator

from ..core.operators import (
    CoGroupOp,
    CrossOp,
    MatchOp,
    ReduceOp,
    UdfOperator,
)
from ..core.plan import Node
from .conditions import kgp_kat, kgp_map, kgp_match_side, roc
from .context import PlanContext


def can_swap_unary_unary(
    upper: UdfOperator, lower: UdfOperator, ctx: PlanContext
) -> bool:
    """Theorem 1 (Map/Map), Theorem 2 (Map/Reduce), and Reduce/Reduce."""
    key = (can_swap_unary_unary, upper, lower)
    cached = ctx.rule_cache.get(key)
    if cached is None:
        cached = _can_swap_unary_unary(upper, lower, ctx)
        ctx.rule_cache[key] = cached
    return cached


def _can_swap_unary_unary(
    upper: UdfOperator, lower: UdfOperator, ctx: PlanContext
) -> bool:
    pu = ctx.props(upper)
    pl = ctx.props(lower)
    if not roc(pu, pl):
        return False
    upper_kat = isinstance(upper, ReduceOp)
    lower_kat = isinstance(lower, ReduceOp)
    if upper_kat and lower_kat:
        return kgp_kat(upper, pu, lower.key_attrs()) and kgp_kat(
            lower, pl, upper.key_attrs()
        )
    if upper_kat:
        return kgp_map(pl, upper.key_attrs())
    if lower_kat:
        return kgp_map(pu, lower.key_attrs())
    return True


def can_exchange_unary_binary(
    unary: UdfOperator,
    binary: UdfOperator,
    side: int,
    other_node: Node,
    ctx: PlanContext,
) -> bool:
    key = (can_exchange_unary_binary, unary, binary, side, other_node)
    cached = ctx.rule_cache.get(key)
    if cached is None:
        cached = _can_exchange_unary_binary(unary, binary, side, other_node, ctx)
        ctx.rule_cache[key] = cached
    return cached


def _can_exchange_unary_binary(
    unary: UdfOperator,
    binary: UdfOperator,
    side: int,
    other_node: Node,
    ctx: PlanContext,
) -> bool:
    """Can ``unary`` sit above the binary or equivalently inside input
    ``side``?  The condition is the same in both directions:

    * ROC between the two UDFs,
    * the unary touches no attribute of the *other* input side
      (Theorem 3's ``(Rf u Wf) n S = empty``),
    * a Map moving past a CoGroup must preserve the CoGroup's key groups
      (Theorem 2 through the tagged-union argument),
    * a Reduce moving past a Match needs the invariant grouping
      conditions (Theorem 4 / Section 4.3.2): the Reduce groups on a
      superset of the Match key of its side, and the Match behaves as a
      group-preserving per-record mapper of that side (other-side key
      unique, per-pair emission at most one, decisions inside the key).
    """
    pu = ctx.props(unary)
    pb = ctx.props(binary)
    if not roc(pu, pb):
        return False
    other_attrs = ctx.out_attrs(other_node)
    if (pu.reads | pu.writes) & other_attrs:
        return False
    if isinstance(binary, CoGroupOp):
        # The paper's tagged-union argument (Section 4.3.2) pushes a Map
        # below a CoGroup by *rewriting* the UDF with a lineage guard
        # (f_R ignores S-tagged records).  A non-intrusive optimizer cannot
        # perform that rewrite: above the CoGroup the Map also sees outputs
        # of right-only key groups (which lack left-side attributes), below
        # it it does not — the plans differ observably.  Without lineage
        # information we must stay conservative and keep the CoGroup as a
        # reorder barrier.
        return False
    if isinstance(unary, ReduceOp):
        if not isinstance(binary, MatchOp):
            return False  # Reduce past Cross needs |R| = 1; not supported
        side_key = frozenset(binary.side_key_attrs(side))
        if not side_key <= unary.key_attrs():
            return False
        return kgp_match_side(ctx, binary, side, other_node, unary.key_attrs())
    return True


def can_rotate(
    upper: UdfOperator,
    lower: UdfOperator,
    stay_node: Node,
    outer_node: Node,
    ctx: PlanContext,
) -> bool:
    key = (can_rotate, upper, lower, stay_node, outer_node)
    cached = ctx.rule_cache.get(key)
    if cached is None:
        cached = _can_rotate(upper, lower, stay_node, outer_node, ctx)
        ctx.rule_cache[key] = cached
    return cached


def _can_rotate(
    upper: UdfOperator,
    lower: UdfOperator,
    stay_node: Node,
    outer_node: Node,
    ctx: PlanContext,
) -> bool:
    """Binary/binary rotation legality (Lemma 1 generalized).

    ``upper`` currently consumes ``lower``'s output; after rotation
    ``lower`` is on top.  ``stay_node`` is the lower operator's child that
    stays directly under it; ``outer_node`` is the upper operator's other
    input, which descends below the lower operator.
    """
    if not isinstance(upper, (MatchOp, CrossOp)):
        return False
    if not isinstance(lower, (MatchOp, CrossOp)):
        return False
    pu = ctx.props(upper)
    pv = ctx.props(lower)
    if not roc(pu, pv):
        return False
    if pu.accessed & ctx.out_attrs(stay_node):
        return False
    if pv.accessed & ctx.out_attrs(outer_node):
        return False
    return True


# ---------------------------------------------------------------------------
# Neighbor generation
# ---------------------------------------------------------------------------


def local_swaps(node: Node, ctx: PlanContext) -> Iterator[Node]:
    """All single swaps whose *upper* operator is this node's root."""
    op = node.op
    if not isinstance(op, UdfOperator):
        return
    if op.arity == 1:
        child = node.children[0]
        cop = child.op
        if not isinstance(cop, UdfOperator):
            return
        if cop.arity == 1:
            if can_swap_unary_unary(op, cop, ctx):
                yield Node(cop, (Node(op, child.children),))
        else:
            for side in (0, 1):
                other = child.children[1 - side]
                if can_exchange_unary_binary(op, cop, side, other, ctx):
                    pushed = Node(op, (child.children[side],))
                    new_children = list(child.children)
                    new_children[side] = pushed
                    yield Node(cop, tuple(new_children))
        return
    # Binary root: lift a unary out of an input, or rotate with a binary child.
    for side in (0, 1):
        inner = node.children[side]
        other = node.children[1 - side]
        iop = inner.op
        if not isinstance(iop, UdfOperator):
            continue
        if iop.arity == 1:
            if can_exchange_unary_binary(iop, op, side, other, ctx):
                new_children = list(node.children)
                new_children[side] = inner.children[0]
                yield Node(iop, (Node(op, tuple(new_children)),))
        elif isinstance(iop, (MatchOp, CrossOp)) and isinstance(
            op, (MatchOp, CrossOp)
        ):
            for taken_side in (0, 1):
                taken = inner.children[taken_side]
                stay = inner.children[1 - taken_side]
                if can_rotate(op, iop, stay, other, ctx):
                    new_upper_children = list(node.children)
                    new_upper_children[side] = taken
                    new_upper = Node(op, tuple(new_upper_children))
                    new_lower_children = list(inner.children)
                    new_lower_children[taken_side] = new_upper
                    yield Node(iop, tuple(new_lower_children))


def neighbors(node: Node, ctx: PlanContext) -> Iterator[Node]:
    """Every plan reachable from ``node`` by exactly one legal swap."""
    yield from local_swaps(node, ctx)
    for i, child in enumerate(node.children):
        for alt in neighbors(child, ctx):
            new_children = list(node.children)
            new_children[i] = alt
            yield Node(node.op, tuple(new_children))
