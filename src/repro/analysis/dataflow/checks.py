"""Verifier cross-checks backed by the dataflow analyses.

Two entry points, mirroring the effect auditor's split:

* :func:`check_stamps` — single-program check: every analysis *claim* a
  pass stamped into ``Expr.attrs`` (``range``, ``non_null``) must be
  re-derivable from the analyses.  A stamp the analysis cannot back is a
  miscompile waiting to be trusted, so it is rejected outright.

* :func:`audit_dataflow_transition` — before/after check of one optimization
  pass: a pass may never *widen* a binding's inferred interval (a widened
  interval means the pass changed what the binding computes), and never
  unwrap a control statement (splice an ``if_`` arm into its parent)
  without a recorded justification whose claim the analysis re-verifies.
"""
from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Set

from ...ir.nodes import Program, Stmt
from ...ir.traversal import iter_program_stmts, iter_stmts
from ..errors import VerificationError
from .framework import use_def
from .lattices import Interval, Nullability
from .values import value_facts

#: attrs carrying analysis claims that check_stamps re-derives
STAMP_ATTRS = ("range", "non_null")


def _has_stamps(program: Program) -> bool:
    for stmt, _ in iter_program_stmts(program):
        attrs = stmt.expr.attrs
        if attrs and any(key in attrs for key in STAMP_ATTRS):
            return True
    return False


def check_stamps(program: Program, catalog: Optional[Any] = None,
                 phase: Optional[str] = None) -> None:
    """Reject analysis stamps the analyses cannot re-derive."""
    if not _has_stamps(program):
        return
    try:
        _check_stamps(program, catalog)
    except VerificationError as exc:
        raise exc.with_phase(phase) if phase else exc from None


def _check_stamps(program: Program, catalog: Optional[Any]) -> None:
    facts = None
    for stmt, _ in iter_program_stmts(program):
        attrs = stmt.expr.attrs
        if not attrs:
            continue
        claimed_range = attrs.get("range")
        if claimed_range is not None:
            if facts is None:
                facts = value_facts(program, catalog)
            _check_range_stamp(stmt, claimed_range, facts)
        if attrs.get("non_null"):
            if facts is None:
                facts = value_facts(program, catalog)
            if facts.fact_of(stmt.sym.id).nullability is not Nullability.NON_NULL:
                raise VerificationError(
                    f"binding {stmt.sym.name} ({stmt.expr.op}) is stamped "
                    "non_null but the nullability analysis cannot prove it "
                    "never holds NULL", check="nullability",
                    binding=stmt.sym.name)


def _check_range_stamp(stmt: Stmt, claimed_range: Any, facts: Any) -> None:
    try:
        low, high = claimed_range
    except (TypeError, ValueError):
        raise VerificationError(
            f"binding {stmt.sym.name} carries a malformed range stamp "
            f"{claimed_range!r} (expected a (lo, hi) pair)",
            check="interval", binding=stmt.sym.name) from None
    claimed = Interval(low, high)
    computed = facts.fact_of(stmt.sym.id).interval
    if not computed.leq(claimed):
        raise VerificationError(
            f"binding {stmt.sym.name} ({stmt.expr.op}) is stamped with range "
            f"{claimed} but the interval analysis infers {computed}, which "
            "the stamp does not contain", check="interval",
            binding=stmt.sym.name)


# ---------------------------------------------------------------------------
# Before/after transition audit
# ---------------------------------------------------------------------------
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
