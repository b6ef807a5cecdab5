"""Verifier cross-check backed by the dataflow analyses.

:func:`audit_dataflow_transition` is a before/after check of one
optimization pass: a pass may never *widen* a binding's inferred interval (a
widened interval means the pass changed what the binding computes), and
never unwrap a control statement (splice an ``if_`` arm into its parent)
without a recorded justification whose claim the analysis re-verifies.
"""
from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Set

from ...ir.nodes import Program, Stmt
from ...ir.traversal import iter_stmts
from ..errors import VerificationError
from .framework import use_def
from .values import value_facts


def audit_dataflow_transition(before: Program, after: Program,
                              catalog: Optional[Any] = None,
                              justifications: Optional[Mapping[int, str]] = None,
                              phase: Optional[str] = None) -> None:
    """Dataflow-level legality audit of one optimization pass."""
    try:
        _audit(before, after, catalog, dict(justifications or {}))
    except VerificationError as exc:
        raise exc.with_phase(phase) if phase else exc from None


def _audit(before: Program, after: Program, catalog: Optional[Any],
           justifications: Dict[int, str]) -> None:
    before_defs = use_def(before).defs
    after_defs = use_def(after).defs
    removed = set(before_defs) - set(after_defs)

    _audit_control_removals(before_defs, after_defs, removed,
                            before, catalog, justifications)
    _audit_intervals(before, after, before_defs, after_defs,
                     catalog, justifications)


def _audit_control_removals(before_defs: Mapping[int, Stmt],
                            after_defs: Mapping[int, Stmt],
                            removed: Set[int], before: Program,
                            catalog: Optional[Any],
                            justifications: Dict[int, str]) -> None:
    """Unwrapping control flow (descendants survive) needs a verified reason."""
    for sym_id in removed:
        stmt = before_defs[sym_id]
        if not stmt.expr.blocks:
            continue
        survivors = [
            inner.sym.name
            for block in stmt.expr.blocks
            for inner, _ in iter_stmts(block)
            if inner.sym.id in after_defs]
        if not survivors:
            continue  # whole subtree removed: the effect audit covers it
        if sym_id not in justifications:
            raise VerificationError(
                f"optimization unwrapped {stmt.expr.op} {stmt.sym.name} "
                f"(descendants {', '.join(survivors[:3])} survive) without a "
                "recorded justification that the taken branch is provable",
                check="dataflow", binding=stmt.sym.name)
        if stmt.expr.op == "if_" and stmt.expr.args:
            cond = value_facts(before, catalog).of_atom(stmt.expr.args[0])
            if not (cond.interval.known_true or cond.interval.known_false):
                raise VerificationError(
                    f"optimization unwrapped if_ {stmt.sym.name} claiming "
                    f"{justifications[sym_id]!r}, but the value analysis "
                    "cannot prove the condition constant on the input "
                    "program", check="dataflow", binding=stmt.sym.name)


def _audit_intervals(before: Program, after: Program,
                     before_defs: Mapping[int, Stmt],
                     after_defs: Mapping[int, Stmt],
                     catalog: Optional[Any],
                     justifications: Dict[int, str]) -> None:
    """A surviving binding's inferred interval may only shrink."""
    before_facts = value_facts(before, catalog)
    after_facts = value_facts(after, catalog)
    for sym_id, stmt in after_defs.items():
        if sym_id not in before_defs or sym_id in justifications:
            continue
        old = before_facts.fact_of(sym_id).interval
        if old.is_top:
            continue
        new = after_facts.fact_of(sym_id).interval
        if not new.leq(old):
            raise VerificationError(
                f"optimization widened the inferred interval of "
                f"{stmt.sym.name} ({stmt.expr.op}) from {old} to {new} — "
                "a widened interval means the binding no longer computes "
                "the same values", check="interval", binding=stmt.sym.name)
