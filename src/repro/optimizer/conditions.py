"""The reordering conditions: ROC (Definition 4) and KGP (Definition 5).

ROC — *read-only conflict* — demands that neither UDF touches attributes
the other updates:  R1 with W2, W1 with R2, and W1 with W2 must all be
disjoint.  Write sets include modified, projected, and newly created
attributes (Definition 2).

KGP — *key group preservation* — demands that an operator either forwards
every record exactly once, or makes its emit decision only from attributes
inside the key ``K`` whose groups must survive.  For key-at-a-time UDFs the
extended definition applies: the UDF must forward whole groups (or drop
them) and its own key must refine ``K``.
"""

from __future__ import annotations

from ..core.operators import BoundProps, MatchOp, ReduceOp
from ..core.plan import Node
from ..core.properties import KatBehavior
from ..core.schema import Attribute
from .context import PlanContext


def roc(p1: BoundProps, p2: BoundProps) -> bool:
    """Definition 4: the read-only conflict condition."""
    if p1.reads & p2.writes:
        return False
    if p1.writes & p2.reads:
        return False
    if p1.writes & p2.writes:
        return False
    return True


def kgp_map(props: BoundProps, key: frozenset[Attribute]) -> bool:
    """Definition 5 for a record-at-a-time UDF against key set ``K``.

    Either every record yields exactly one output, or the UDF is a filter
    (at most one output) whose decision depends only on attributes in K.
    """
    bounds = props.emit_bounds
    if bounds.exactly_one:
        return True
    if bounds.filter_like and props.branch_reads <= key:
        return True
    return False


def kgp_kat(op: ReduceOp, props: BoundProps, key: frozenset[Attribute]) -> bool:
    """Extended KGP for a key-at-a-time UDF (Definition 5's extension).

    The UDF must forward or drop whole groups (ALL_OR_NONE), and its own
    key must refine ``K`` so that every K-group lies inside a single group
    of the UDF — then whole K-groups are kept or dropped together.
    """
    if props.kat_behavior is not KatBehavior.ALL_OR_NONE:
        return False
    return op.key_attrs() <= key


def kgp_match_side(
    ctx: PlanContext,
    op: MatchOp,
    side: int,
    other_node: Node,
    key: frozenset[Attribute],
) -> bool:
    """KGP of a Match operator seen as a per-record mapper of one side.

    Per record of ``side`` the Match emits (fan-out x per-pair) records.
    The decision attributes are the side's join key (which other-side rows
    match is a function of the key only) plus the UDF's own branch reads
    on this side; other-side branch reads are harmless when the other
    side's key is unique, because the key value then determines the
    matched row entirely.
    """
    bounds = ctx.match_record_bounds(op, side, other_node)
    if bounds.hi is None or bounds.hi > 1:
        return False
    other_attrs = ctx.out_attrs(other_node)
    decision = frozenset(op.side_key_attrs(side))
    decision |= ctx.props(op).branch_reads - other_attrs
    other_branch = ctx.props(op).branch_reads & other_attrs
    if other_branch and not ctx.key_unique_in(op, 1 - side, other_node):
        return False
    if bounds.exactly_one:
        return True
    return decision <= key


def accessed(props: BoundProps) -> frozenset[Attribute]:
    return props.accessed
