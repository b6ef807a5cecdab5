"""Dead-code elimination over ANF programs, driven by the dataflow analyses.

Two analyses from :mod:`repro.analysis.dataflow` decide what dies:

* **liveness** (backward): a binding whose value is never needed — not a
  block result, not an argument of an effectful statement, not feeding any
  live binding — may be dropped when its effect allows it
  (``removable_if_unused``).  Because liveness propagates through chains of
  dead pure bindings in one pass, the former iterate-until-no-change use
  counting is gone: one sweep removes a whole dead dependency chain.

* **purity/escape**: a write-only allocation that never escapes (every use
  is a mutating write whose own result is unused) dies *together with all of
  its writes* — something use counting could never see, because each write
  kept the object's use count above zero.

Deleting only ever takes uses away, so the passes it can give work to are the
ones that count uses: this pass itself — liveness counts a write as a use of
its operands, so a dead write that goes strands the bindings that produced the
written value, and an allocation whose last reader goes becomes write-only —
and folding, which unwraps a decided ``None``-valued branch only once nothing
reads its binding.  :meth:`DeadCodeElimination.enables_after` tells the
fixpoint driver which of these one sweep did.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..analysis.dataflow.framework import use_def
from ..analysis.dataflow.liveness import liveness
from ..analysis.dataflow.purity import purity
from ..ir.nodes import Block, Expr, Program, Stmt, Sym
from ..ir.ops import effect_of
from ..ir.traversal import same_objects
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization
from .folding import DataflowFolding


class DeadCodeElimination(Optimization):
    """Remove statements whose results are unused and whose effects allow it."""

    #: ``enables`` (below the class: it names the class) is this pass and
    #: folding — deleting creates no constant, record, invariant or
    #: allocation, it only drops uses, and those two read use counts.

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"dce[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        dead = _deaths(program)
        body = _sweep(program.body, dead)
        hoisted = _sweep(program.hoisted, dead)
        if body is program.body and hoisted is program.hoisted:
            return program
        return Program(body=body, params=program.params,
                       language=program.language, hoisted=hoisted)

    def enables_after(self, before: Program) -> Optional[Tuple[type, ...]]:
        """Which of the two the sweep of ``before`` gave work to.

        Folding looks again when an ``if_`` binding lost a reader (an arm's
        dead write is no reason: folding drops the arm a decided condition
        never selects, writes and all).  This pass
        looks again when an allocation or a write lost a reader (the object
        may be write-only now), and when a dead write or its object went that
        was the reason a binding was live.
        """
        dead = _deaths(before)
        defs = use_def(before).defs
        objects = purity(before)
        enabled = set()

        def visit(block: Block) -> None:
            for stmt in block.stmts:
                if not dead(stmt):
                    for nested in stmt.expr.blocks:
                        visit(nested)
                    continue
                rooted = stmt.sym.id in objects.dead_writes \
                    or stmt.sym.id in objects.removable_objects
                for arg in stmt.expr.args:
                    definition = defs.get(arg.id) if isinstance(arg, Sym) else None
                    if definition is None or dead(definition):
                        continue
                    effect = effect_of(definition.expr.op)
                    if definition.expr.op == "if_":
                        enabled.add(DataflowFolding)
                    if rooted or effect.allocates or effect.writes:
                        enabled.add(DeadCodeElimination)

        visit(before.hoisted)
        visit(before.body)
        return tuple(enabled)


DeadCodeElimination.enables = (DeadCodeElimination, DataflowFolding)


def _deaths(program: Program) -> Callable[[Stmt], bool]:
    """The predicate "this statement of ``program`` is dead" (memoized facts)."""
    live = liveness(program).live
    objects = purity(program)

    def dead(stmt: Stmt) -> bool:
        sym_id = stmt.sym.id
        if sym_id in objects.dead_writes or sym_id in objects.removable_objects:
            return True
        if stmt.expr.blocks:
            return False
        if not effect_of(stmt.expr.op).removable_if_unused:
            return False
        return sym_id not in live

    return dead


def _sweep(block: Block, dead: Callable[[Stmt], bool]) -> Block:
    """``block`` without its dead statements; the same object when none died."""
    new_stmts: List[Stmt] = []
    changed = False
    for stmt in block.stmts:
        if dead(stmt):
            changed = True
            continue
        blocks = stmt.expr.blocks
        if blocks:
            new_blocks = tuple(_sweep(nested, dead) for nested in blocks)
            if not same_objects(new_blocks, blocks):
                changed = True
                stmt = Stmt(stmt.sym, Expr(stmt.expr.op, stmt.expr.args,
                                           stmt.expr.attrs, new_blocks,
                                           stmt.expr.type))
        new_stmts.append(stmt)
    if not changed:
        return block
    return Block(new_stmts, block.result, block.params)
