"""Purity / escape analysis: which allocations outlive their block.

The effect system says *what kind* of effect each op has; this analysis says
what that means for one concrete program's objects:

* an allocation **escapes** when its object can be observed after the
  allocating statement's value is forgotten — it is a block result, or it is
  passed to any op in a non-mutated argument position (aliasing, reads,
  iteration).

* a **removable object** is the opposite extreme: an allocation whose *every*
  use is as the mutated argument of a value-returning-nothing write
  (``list_append``, ``var_write``, ``set_add``, ...) whose own result is also
  unused.  Such an object is write-only and private — the allocation *and*
  all its writes can be deleted together without any observable difference.
  The liveness-backed DCE consumes exactly this set; the former use-count DCE
  could never remove these because each write "uses" the object.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from ...ir.nodes import Program, Sym
from ...ir.ops import REGISTRY
from .framework import CACHE, walk_forward


@dataclass(frozen=True)
class PurityFacts:
    """Escape and write-only-object facts of one program."""

    #: alloc sym ids whose object may be observed beyond its writes
    escaping: FrozenSet[int]
    #: alloc sym ids removable together with all their writes
    removable_objects: FrozenSet[int]
    #: sym ids of the write statements that die with a removable object
    dead_writes: FrozenSet[int]


def purity(program: Program) -> PurityFacts:
    """Memoized escape facts of ``program``."""
    def compute() -> PurityFacts:
        return _compute(program)

    result = CACHE.get_or_compute(program, "purity", compute)
    assert isinstance(result, PurityFacts)
    return result


def _compute(program: Program) -> PurityFacts:
    allocs: Set[int] = set()
    #: alloc sym id -> sym ids of write stmts targeting it
    writes: Dict[int, List[int]] = {}
    escaping: Set[int] = set()
    use_counts: Dict[int, int] = {}

    for stmt, _block, _depth in walk_forward(program):
        for arg in stmt.expr.args:
            if isinstance(arg, Sym):
                use_counts[arg.id] = use_counts.get(arg.id, 0) + 1

    for root in program.all_blocks():
        if isinstance(root.result, Sym):
            use_counts[root.result.id] = use_counts.get(root.result.id, 0) + 1

    for stmt, _block, _depth in walk_forward(program):
        row = REGISTRY.get(stmt.expr.op)
        effect = row.effect
        if effect.allocates and not stmt.expr.blocks:
            allocs.add(stmt.sym.id)
            writes.setdefault(stmt.sym.id, [])
        mutated = row.mutated
        unit_write = (effect.writes and not effect.reads and not effect.control
                      and mutated is not None
                      and use_counts.get(stmt.sym.id, 0) == 0)
        for position, arg in enumerate(stmt.expr.args):
            if not isinstance(arg, Sym):
                continue
            if unit_write and position == mutated:
                writes.setdefault(arg.id, []).append(stmt.sym.id)
            else:
                escaping.add(arg.id)
        for nested in stmt.expr.blocks:
            if isinstance(nested.result, Sym):
                escaping.add(nested.result.id)
    for root in program.all_blocks():
        if isinstance(root.result, Sym):
            escaping.add(root.result.id)

    removable: Set[int] = set()
    dead_writes: Set[int] = set()
    for alloc_id in allocs:
        if alloc_id in escaping:
            continue
        removable.add(alloc_id)
        dead_writes.update(writes.get(alloc_id, ()))

    return PurityFacts(escaping=frozenset(escaping & allocs),
                       removable_objects=frozenset(removable),
                       dead_writes=frozenset(dead_writes))
