"""Backward liveness analysis over ANF programs.

A binding is *live* when its value can still be observed: it is a block
result, or an argument of a statement that must execute (a write, I/O, or
control statement), or an argument of another live binding's definition.
Everything else is dead — exactly the set :mod:`repro.transforms.dce` may
sweep, computed here once per program (memoized) instead of by DCE's former
iterate-to-fixpoint use counting.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set

from ...ir.nodes import Program, Sym
from ...ir.ops import effect_of
from .framework import CACHE, use_def, walk_backward


@dataclass(frozen=True)
class LivenessFacts:
    """The result of the backward liveness analysis."""

    #: sym ids whose value is needed somewhere
    live: FrozenSet[int]
    #: sym ids of statements that must execute for their effects alone
    #: (writes, I/O, control) regardless of whether their value is used
    rooted: FrozenSet[int]


def liveness(program: Program) -> LivenessFacts:
    """Memoized liveness facts of ``program``."""
    def compute() -> LivenessFacts:
        facts = use_def(program)
        live: Set[int] = set()
        rooted: Set[int] = set()
        worklist: List[int] = []

        def mark(sym_id: int) -> None:
            if sym_id not in live:
                live.add(sym_id)
                worklist.append(sym_id)

        for stmt, _block, _depth in walk_backward(program):
            effect = effect_of(stmt.expr.op)
            if stmt.expr.blocks or not effect.removable_if_unused:
                rooted.add(stmt.sym.id)
                for arg in stmt.expr.args:
                    if isinstance(arg, Sym):
                        mark(arg.id)
            # Nested block results feed the enclosing statement even when the
            # block itself is empty (which the walker never visits).
            for nested in stmt.expr.blocks:
                if isinstance(nested.result, Sym):
                    mark(nested.result.id)
        for root in program.all_blocks():
            if isinstance(root.result, Sym):
                mark(root.result.id)

        while worklist:
            stmt = facts.defs.get(worklist.pop())
            if stmt is None:
                continue  # block parameter or program parameter
            for arg in stmt.expr.args:
                if isinstance(arg, Sym):
                    mark(arg.id)

        return LivenessFacts(live=frozenset(live), rooted=frozenset(rooted))

    result = CACHE.get_or_compute(program, "liveness", compute)
    assert isinstance(result, LivenessFacts)
    return result
