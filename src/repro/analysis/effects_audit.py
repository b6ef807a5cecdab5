"""Effect-declaration audit and optimization-legality checking.

Two responsibilities, both grounded in :mod:`repro.ir.effects`:

* :func:`audit_effects` checks every statement of a program against the
  *declared* effect of its op — control effects and nested blocks must
  agree, a writing op must target a symbol (never a constant, never a
  symbol the program cannot have allocated, and never a structure that
  lives on the catalog and is shared by every other query), and every op
  must actually be registered with an effect.

* :func:`audit_transition` takes the program **before** and **after** one
  optimization pass and proves the pass stayed inside the effect system's
  legality envelope:

  - every *removed* binding was effectively removable
    (``Effect.removable_if_unused`` — for control ops the effective effect
    is the recursive union of their nested blocks, so dropping an ``if_``
    with pure arms is legal while dropping one whose arm writes is not),
    or sat in an ``if_`` arm that the branch's condition never selects, so
    it never ran: the condition is a literal, or the pass recorded a
    justification for deciding it and the value analysis of the input
    program proves that verdict;
  - the surviving non-reorderable statements (writes and I/O) appear in the
    same relative order as before — hoisting and fusion may move pure code
    freely but must never swap two writes.
  - a surviving write still writes the object it wrote before, unless the
    pass removed that object's binding — a pass may fold away the ``if_``
    that handed the object out, but never point the write somewhere else.

The auditor deliberately knows nothing about individual transformations;
it only trusts the effect declarations, and a pass's claim that a branch is
decided only once the value analysis has proved it again.  That is what
makes it a check *on* the transformations rather than a restatement of them.
"""
from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Set

from ..ir import ops as ir_ops
from ..ir.effects import Effect
from ..ir.nodes import Atom, Const, Expr, Program, Stmt, Sym
from ..ir.traversal import iter_program_stmts, iter_stmts
from .dataflow.values import ValueFacts, value_facts
from .errors import VerificationError


def _err(message: str,
         binding: Optional[str] = None) -> VerificationError:
    return VerificationError(message, check="effects", binding=binding)


def effective_effect(expr: Expr) -> Effect:
    """The observable effect of one expression.

    For straight-line ops this is the registered effect.  For control ops
    the registered ``CONTROL`` summary (which pessimistically claims reads
    *and* writes) is replaced by the recursive union over the nested
    blocks — an ``if_`` whose arms are pure is effectively pure, which is
    exactly what makes branch-removal passes legal.
    """
    declared = ir_ops.effect_of(expr.op)
    if not declared.control:
        return declared
    combined = Effect()
    for block in expr.blocks:
        for stmt in block.stmts:
            combined = combined.union(effective_effect(stmt.expr))
    return combined


# ---------------------------------------------------------------------------
# Static declaration audit of a single program
# ---------------------------------------------------------------------------
def _shared_bindings(program: Program) -> Set[int]:
    """Bindings holding (a part of) a catalog-resident, read-only structure:
    the result of a ``shared`` op, an element read out of one (an
    element of a shared structure is as shared as the structure), or an
    ``if_`` either arm of which hands one out (a guarded probe)."""
    shared: Set[int] = set()

    def visit(block) -> None:
        for stmt in block.stmts:
            expr = stmt.expr
            for nested in expr.blocks:
                visit(nested)  # arms first: an if_ is judged by their results
            if not ir_ops.is_registered(expr.op):
                continue  # reported by the audit proper
            if ir_ops.REGISTRY.get(expr.op).shared:
                derived = True
            elif expr.op == "array_get":
                derived = isinstance(expr.args[0], Sym) \
                    and expr.args[0].id in shared
            elif expr.op == "if_":
                derived = any(isinstance(arm.result, Sym)
                              and arm.result.id in shared
                              for arm in expr.blocks)
            else:
                derived = False
            if derived:
                shared.add(stmt.sym.id)

    visit(program.hoisted)
    visit(program.body)
    return shared


def audit_effects(program: Program) -> None:
    allocated: Set[int] = {param.id for param in program.params}
    shared = _shared_bindings(program)
    for stmt, _ in iter_program_stmts(program):
        expr = stmt.expr
        if not ir_ops.is_registered(expr.op):
            raise _err(f"op {expr.op!r} has no registered effect",
                       binding=stmt.sym.name)
        op = ir_ops.REGISTRY.get(expr.op)
        effect = op.effect
        if expr.blocks and not effect.control:
            raise _err(
                f"op {expr.op} carries nested blocks but its declared "
                "effect is not control — the optimizer would treat it as "
                "straight-line code", binding=stmt.sym.name)
        if effect.control and not expr.blocks:
            raise _err(
                f"control op {expr.op} has no nested blocks",
                binding=stmt.sym.name)
        if op.mutated is not None:
            _check_mutation_target(stmt, op.mutated, allocated, shared)
        if effect.allocates:
            allocated.add(stmt.sym.id)
        for block in expr.blocks:
            # block parameters (loop variables, foreach elements) may be
            # mutable objects handed in by the runtime
            for param in block.params:
                allocated.add(param.id)


def _check_mutation_target(stmt: Stmt, index: int, allocated: Set[int],
                           shared: Set[int]) -> None:
    expr = stmt.expr
    if index >= len(expr.args):
        # arity problems are the type checker's report; skip here
        return
    target = expr.args[index]
    if isinstance(target, Const):
        raise _err(
            f"writing op {expr.op} mutates the constant {target.value!r} — "
            "writes must target an allocated object",
            binding=stmt.sym.name)
    if isinstance(target, Sym) and target.id in shared:
        raise _err(
            f"writing op {expr.op} mutates {target.name}, which is (part of) "
            "a catalog-resident structure shared by every query — generated "
            "code may only read it", binding=stmt.sym.name)
    if isinstance(target, Sym) and expr.op in ("var_write",) \
            and target.id not in allocated:
        raise _err(
            f"var_write targets {target.name}, which no preceding var_new "
            "(or parameter) allocated", binding=stmt.sym.name)


# ---------------------------------------------------------------------------
# Before/after legality of one optimization pass
# ---------------------------------------------------------------------------
def _stmt_index(program: Program) -> Dict[int, Stmt]:
    index: Dict[int, Stmt] = {}
    for stmt, _ in iter_program_stmts(program):
        index[stmt.sym.id] = stmt
    return index


def _ordered_ids(program: Program) -> List[int]:
    return [stmt.sym.id for stmt, _ in iter_program_stmts(program)]


def audit_transition(before: Program, after: Program,
                     phase: Optional[str] = None, catalog: Any = None,
                     justifications: Optional[Mapping[int, str]] = None) -> None:
    """Prove one optimization pass legal under the effect system.

    Raises :class:`VerificationError` (attributed to ``phase``) when the
    pass removed a non-removable binding, reordered two statements whose
    effects pin their relative order, or retargeted a surviving write.
    ``justifications`` maps the sym id of an ``if_`` the pass decided to its
    recorded reason; ``catalog`` seeds the value analysis that re-proves it.
    """
    try:
        _audit_transition(before, after, catalog, justifications or {})
    except VerificationError as exc:
        raise exc.with_phase(phase) if phase else exc from None


def _audit_transition(before: Program, after: Program, catalog: Any,
                      justifications: Mapping[int, str]) -> None:
    before_index = _stmt_index(before)
    after_index = _stmt_index(after)
    never_run = _never_run(before, catalog, justifications)

    for sym_id, stmt in before_index.items():
        if sym_id in after_index or sym_id in never_run:
            continue
        declared = ir_ops.effect_of(stmt.expr.op)
        if declared.control:
            # The branch/loop decision itself is unobservable.  Every removed
            # descendant appears in before_index and is checked on its own
            # here; splices that leave descendants *surviving* are the
            # dataflow audit's justification check.
            continue
        if declared.removable_if_unused:
            continue
        if _is_dead_object_write(stmt, before_index, after_index):
            continue
        what = "I/O" if declared.io else "a write"
        raise _err(
            f"optimization removed the binding of {stmt.sym.name} "
            f"({stmt.expr.op}), whose effective effect performs {what} "
            "— only removable_if_unused bindings may be dropped",
            binding=stmt.sym.name)

    pinned_before = [
        sym_id for sym_id in _ordered_ids(before)
        if sym_id in after_index
        and not effective_effect(before_index[sym_id].expr)
        .can_reorder_with_reads]
    pinned_set = set(pinned_before)
    pinned_after = [sym_id for sym_id in _ordered_ids(after)
                    if sym_id in pinned_set]
    if pinned_before != pinned_after:
        moved = _first_divergence(pinned_before, pinned_after)
        name = before_index[moved].sym.name if moved in before_index else "?"
        raise _err(
            "optimization reordered non-reorderable statements: the "
            f"writes/IO around {name} ({before_index[moved].expr.op}) no "
            "longer execute in their original relative order",
            binding=name)

    for sym_id, stmt in after_index.items():
        old = _write_target(before_index.get(sym_id))
        if not isinstance(old, Sym) or \
                (old.id in before_index and old.id not in after_index):
            continue  # no write before, or its target's binding was removed
        new = _write_target(stmt)
        if not (isinstance(new, Sym) and new.id == old.id):
            to = "no target" if new is None else getattr(new, "name", repr(new))
            raise _err(
                f"optimization retargeted the write {stmt.sym.name} "
                f"({stmt.expr.op}) from {old.name} to {to} — a surviving "
                "write must keep writing the object it wrote before",
                binding=stmt.sym.name)


def _never_run(program: Program, catalog: Any,
               justifications: Mapping[int, str]) -> Set[int]:
    """Bindings inside an ``if_`` arm that the branch's condition never
    selects (the else arm of ``if True``, the then arm of ``if False``):
    their effects never happen, so removing them is not observable.  The
    condition is a literal, or a justified ``if_``'s condition that the
    value analysis of ``program`` decides."""
    dead: Set[int] = set()
    facts: Optional[ValueFacts] = None
    for stmt, _ in iter_program_stmts(program):
        expr = stmt.expr
        cond = expr.args[0] if expr.op == "if_" and expr.args else None
        if isinstance(cond, Const):
            verdict = bool(cond.value)
        elif isinstance(cond, Sym) and stmt.sym.id in justifications:
            if facts is None:
                facts = value_facts(program, catalog)
            interval = facts.of_atom(cond).interval
            if not (interval.known_true or interval.known_false):
                continue  # an unproved claim: removals are judged as any other
            verdict = interval.known_true
        else:
            continue
        arm = expr.blocks[1] if verdict else expr.blocks[0]
        dead.update(nested.sym.id for nested, _ in iter_stmts(arm))
    return dead


def _write_target(stmt: Optional[Stmt]) -> Optional[Atom]:
    """The argument a writing statement mutates in place, if it has one (an
    unregistered op is :func:`audit_effects`'s report, not a crash here)."""
    if stmt is None or not ir_ops.is_registered(stmt.expr.op):
        return None
    mutated = ir_ops.REGISTRY.get(stmt.expr.op).mutated
    if mutated is None or mutated >= len(stmt.expr.args):
        return None
    return stmt.expr.args[mutated]


def _is_dead_object_write(stmt: Stmt, before_index: Dict[int, Stmt],
                          after_index: Dict[int, Stmt]) -> bool:
    """Whole-object deletion: a removed write whose target object also died.

    Deleting a write-only allocation together with *all* of its writes is
    unobservable (nothing ever read the object), and it is exactly what the
    escape-refined DCE does — so a removed write is legal when the binding
    it mutates was itself a removed binding of the same program.
    """
    target = _write_target(stmt)
    return (isinstance(target, Sym) and target.id in before_index
            and target.id not in after_index)


def _first_divergence(left: List[int], right: List[int]) -> int:
    for a, b in zip(left, right):
        if a != b:
            return a
    return left[len(right)] if len(left) > len(right) else right[len(left)]
