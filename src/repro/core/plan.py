"""Data flow plans as immutable, hash-consed operator trees.

A plan is a tree of :class:`Node` objects whose leaves are sources and whose
root is usually a sink.  Nodes are *interned*: constructing a node that is
structurally equal to an existing one (same operator object, same child
nodes) returns the existing object, so structural equality is object
identity, ``hash`` is O(1), and every cache keyed on nodes (enumeration
seen-sets, cardinality estimates, physical-plan memo tables) becomes an
identity lookup.  The structural :func:`signature` of a node is computed
once at construction from the already-cached child signatures — no
recursive re-walk per lookup.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterator

from .errors import PlanError
from .operators import (
    CoGroupOp,
    CrossOp,
    MapOp,
    MatchOp,
    MaterializedSource,
    Operator,
    ReduceOp,
    Sink,
    Source,
    UdfOperator,
)


class Node:
    """One operator application over child sub-flows (hash-consed).

    Operators compare by identity, so the intern table keys on
    ``(op, children)`` where the children are themselves interned nodes;
    tuple equality over the key is then pure identity comparison.  The
    table holds weak references to the nodes so dropped plans are
    reclaimed; a parent's key tuple keeps its children alive exactly as
    long as the parent itself is.
    """

    __slots__ = ("op", "children", "signature", "_hash", "__weakref__")

    _intern: "weakref.WeakValueDictionary[tuple, Node]" = (
        weakref.WeakValueDictionary()
    )

    op: Operator
    children: tuple["Node", ...]
    signature: tuple
    _hash: int

    def __new__(cls, op: Operator, children: tuple["Node", ...] = ()) -> "Node":
        children = tuple(children)
        key = (op, children)
        existing = cls._intern.get(key)
        if existing is not None:
            return existing
        if len(children) != op.arity:
            raise PlanError(
                f"operator {op.name!r} has arity {op.arity} but got "
                f"{len(children)} children"
            )
        self = super().__new__(cls)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", children)
        object.__setattr__(
            self,
            "signature",
            (op.name,) + tuple(c.signature for c in children),
        )
        # Identity hash is sound: interning makes structural equality
        # coincide with object identity (and parents' intern keys hash
        # children through this, so equal keys still collide correctly).
        object.__setattr__(self, "_hash", object.__hash__(self))
        cls._intern[key] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Node is immutable")

    def __hash__(self) -> int:
        return self._hash

    @property
    def only_child(self) -> "Node":
        if len(self.children) != 1:
            raise PlanError(f"operator {self.op.name!r} is not unary")
        return self.children[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({render_inline(self)})"


def node(op: Operator, *children: Node) -> Node:
    """Convenience constructor."""
    return Node(op, tuple(children))


def chain(source: Operator, *ops: Operator) -> Node:
    """Build a linear flow ``source -> ops[0] -> ops[1] -> ...``."""
    current = Node(source, ())
    for op in ops:
        current = Node(op, (current,))
    return current


def iter_nodes(root: Node) -> Iterator[Node]:
    """Pre-order traversal."""
    stack = [root]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current.children))


def signature(root: Node) -> tuple:
    """Structural identity of a plan (operator names + shape).

    Cached on the node at construction time; this accessor is O(1).
    """
    return root.signature


def signature_key(root: Node) -> str:
    """Stable, human-readable string form of a plan signature.

    Operator names cannot contain ``(``/``)``/``,`` (enforced at
    :class:`~repro.core.operators.Operator` construction), so the
    rendering is injective on signatures.  Used as the persistence key of
    runtime observations: two
    plans — across processes and across physically different executions —
    share a key exactly when their logical signatures are equal.
    """
    return _encode_signature(root.signature)


def _encode_signature(sig: tuple) -> str:
    name = sig[0]
    if len(sig) == 1:
        return name
    return f"{name}({','.join(_encode_signature(c) for c in sig[1:])})"


def resolved_signature(root: Node) -> tuple:
    """Structural signature with materialized boundaries substituted back.

    A :class:`~repro.core.operators.MaterializedSource` leaf stands for an
    already-executed subtree; substituting its ``origin_signature`` yields
    the signature the *equivalent ordinary plan* would have.  For plans
    without materialized leaves this equals :func:`signature` exactly.
    """
    op = root.op
    if isinstance(op, MaterializedSource):
        return op.origin_signature
    if not root.children:
        return root.signature
    return (op.name,) + tuple(resolved_signature(c) for c in root.children)


def resolved_signature_key(root: Node) -> str:
    """:func:`signature_key` over :func:`resolved_signature`.

    This is the key under which runtime observations are stored and looked
    up: a suffix node planned over a materialized stage boundary shares its
    key with the same logical sub-flow in an ordinary plan, so statistics
    learned mid-query transfer to future full-plan optimizations (and vice
    versa).  Identical to :func:`signature_key` on ordinary plans.
    """
    return _encode_signature(resolved_signature(root))


def replace_subtree(root: Node, old: Node, new: Node) -> Node:
    """Return a copy of ``root`` with the subtree ``old`` replaced by ``new``.

    Matching is structural; the first match in pre-order is replaced.
    """
    if root == old:
        return new
    replaced = False
    new_children = []
    for child in root.children:
        if not replaced:
            candidate = replace_subtree(child, old, new)
            if candidate is not child and candidate != child:
                replaced = True
                new_children.append(candidate)
                continue
            if child == old:
                replaced = True
                new_children.append(new)
                continue
        new_children.append(child)
    if not replaced and root != old:
        return root
    return Node(root.op, tuple(new_children))


def validate(root: Node) -> None:
    """Structural validation: unique operator names, single sink at root."""
    names: set[str] = set()
    for n in iter_nodes(root):
        if n.op.name in names:
            raise PlanError(f"duplicate operator name {n.op.name!r} in plan")
        names.add(n.op.name)
        if isinstance(n.op, Sink) and n is not root:
            raise PlanError("sink operators may only appear at the plan root")
        if isinstance(n.op, Source) and n.children:
            raise PlanError("source operators are leaves")


def body(root: Node) -> Node:
    """Strip a sink root, if present (enumeration works below the sink)."""
    if isinstance(root.op, Sink):
        return root.only_child
    return root


def resinked(original_root: Node, new_body: Node) -> Node:
    """Re-attach the sink of ``original_root`` (if any) on top of a new body."""
    if isinstance(original_root.op, Sink):
        return Node(original_root.op, (new_body,))
    return new_body


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_KIND_LABEL: dict[type, str] = {
    Source: "Source",
    Sink: "Sink",
    MapOp: "Map",
    ReduceOp: "Reduce",
    CrossOp: "Cross",
    MatchOp: "Match",
    CoGroupOp: "CoGroup",
}


def kind_label(op: Operator) -> str:
    return _KIND_LABEL.get(type(op), type(op).__name__)


def render_inline(root: Node) -> str:
    """Compact one-line rendering, e.g. ``Map:f(Source:I)``."""
    label = f"{kind_label(root.op)}:{root.op.name}"
    if not root.children:
        return label
    inner = ", ".join(render_inline(c) for c in root.children)
    return f"{label}({inner})"


def render_tree(root: Node) -> str:
    """Multi-line ASCII rendering of a plan tree."""
    lines: list[str] = []

    def walk(n: Node, prefix: str, is_last: bool) -> None:
        connector = "" if not prefix else ("`-- " if is_last else "|-- ")
        lines.append(f"{prefix}{connector}{kind_label(n.op)} {n.op.name}")
        child_prefix = prefix + ("    " if is_last or not prefix else "|   ")
        for i, child in enumerate(n.children):
            walk(child, child_prefix, i == len(n.children) - 1)

    walk(root, "", True)
    return "\n".join(lines)


def linearize(root: Node) -> tuple[str, ...]:
    """Bottom-up order of UDF operator names along the main spine.

    Useful in tests for chains: sources and sinks are skipped.
    """
    order: list[str] = []

    def walk(n: Node) -> None:
        for child in n.children:
            walk(child)
        if isinstance(n.op, UdfOperator):
            order.append(n.op.name)

    walk(root)
    return tuple(order)


def map_nodes(root: Node, fn: Callable[[Node], Node | None]) -> Node:
    """Bottom-up rebuild; ``fn`` may return a replacement for each node."""
    new_children = tuple(map_nodes(c, fn) for c in root.children)
    candidate = Node(root.op, new_children)
    replacement = fn(candidate)
    return replacement if replacement is not None else candidate
