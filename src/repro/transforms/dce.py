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

The outer fixed-point driver still re-runs the pass: dropping a dead write
can strand the bindings that produced the written value, which the fresh
liveness facts of the next iteration then pick up.
"""
from __future__ import annotations

from typing import Callable, List

from ..analysis.dataflow.liveness import liveness
from ..analysis.dataflow.purity import purity
from ..ir.nodes import Block, Expr, Program, Stmt
from ..ir.ops import effect_of
from ..ir.traversal import same_objects
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization


class DeadCodeElimination(Optimization):
    """Remove statements whose results are unused and whose effects allow it."""

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"dce[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        live = liveness(program)
        objects = purity(program)

        def dead(stmt: Stmt) -> bool:
            sym_id = stmt.sym.id
            if sym_id in objects.dead_writes or sym_id in objects.removable_objects:
                return True
            if stmt.expr.blocks:
                return False
            if not effect_of(stmt.expr.op).removable_if_unused:
                return False
            return sym_id not in live.live

        body = _sweep(program.body, dead)
        hoisted = _sweep(program.hoisted, dead)
        if body is program.body and hoisted is program.hoisted:
            return program
        return Program(body=body, params=program.params,
                       language=program.language, hoisted=hoisted)


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
