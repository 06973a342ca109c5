"""Generic data-flow analysis framework (worklist algorithm).

The paper assumes an SCA framework providing "a control flow graph and two
data structures obtained by a data flow analysis" — USE-DEF and DEF-USE
chains (Section 5).  This module provides the classic *reaching
definitions* analysis those chains are built from, as a small reusable
worklist framework.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cfg import ControlFlowGraph

# A definition is identified by (instruction_index, variable_name).
Definition = tuple[int, str]


@dataclass(slots=True)
class ReachingDefinitions:
    """Per-instruction reaching-definition sets.

    ``reach_in[i]`` holds every definition (l, v) that may reach
    instruction ``i`` without being overwritten.
    """

    reach_in: list[frozenset[Definition]]
    reach_out: list[frozenset[Definition]]


def reaching_definitions(cfg: ControlFlowGraph) -> ReachingDefinitions:
    """Classic forward may-analysis over the CFG (block-level worklist,
    then a block-local pass to per-instruction precision)."""
    fn = cfg.fn
    instrs = fn.instructions
    n = len(instrs)

    # Block-level transfer functions.
    n_blocks = len(cfg.blocks)
    block_gen: list[dict[str, Definition]] = []
    for block in cfg.blocks:
        gens: dict[str, Definition] = {}
        for i in block.instruction_indices():
            var = instrs[i].defined_var()
            if var is not None:
                gens[var] = (i, var)
        block_gen.append(gens)

    block_in: list[set[Definition]] = [set() for _ in range(n_blocks)]
    block_out: list[set[Definition]] = [set() for _ in range(n_blocks)]

    # Parameters act as definitions reaching the entry.
    entry_defs = {(-1 - k, p) for k, p in enumerate(fn.params)}
    block_in[cfg.entry] = set(entry_defs)

    def transfer(block_index: int, inset: set[Definition]) -> set[Definition]:
        gens = block_gen[block_index]
        killed_vars = set(gens)
        out = {d for d in inset if d[1] not in killed_vars}
        out.update(gens.values())
        return out

    worklist: deque[int] = deque(range(n_blocks))
    while worklist:
        b = worklist.popleft()
        inset = set(entry_defs) if b == cfg.entry else set()
        for p in cfg.blocks[b].predecessors:
            inset |= block_out[p]
        out = transfer(b, inset)
        block_in[b] = inset
        if out != block_out[b]:
            block_out[b] = out
            for s in cfg.blocks[b].successors:
                worklist.append(s)

    # Per-instruction refinement.
    reach_in: list[frozenset[Definition]] = [frozenset()] * n
    reach_out: list[frozenset[Definition]] = [frozenset()] * n
    for block in cfg.blocks:
        current = set(block_in[block.index])
        for i in block.instruction_indices():
            reach_in[i] = frozenset(current)
            var = instrs[i].defined_var()
            if var is not None:
                current = {d for d in current if d[1] != var}
                current.add((i, var))
            reach_out[i] = frozenset(current)
    return ReachingDefinitions(reach_in, reach_out)
