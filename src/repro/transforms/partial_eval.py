"""Partial evaluation (constant folding) of pure scalar operations.

One of the "standard compiler optimizations" the paper lists in Section 6.
Pure arithmetic, comparisons and logic over constants are folded at compile
time; the statement disappears and its uses are replaced by the folded value.
"""
from __future__ import annotations

import operator
from typing import Optional

from ..ir.nodes import Const, Program, Stmt
from ..ir.traversal import BlockRewriter, rewrite_program
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization
from .dce import DeadCodeElimination
from .folding import DataflowFolding
from .licm import LoopInvariantHoisting
from .memory_hoisting import MemoryAllocationHoisting

_FOLDABLE = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}


class PartialEvaluation(Optimization):
    """Fold pure operations whose arguments are all compile-time constants."""

    #: a folded value is a constant condition (folding), a constant operand
    #: (invariance, loading-time evaluation) and one use fewer (DCE); it is
    #: never a record, and chains of folds finish in the same run
    enables = (DataflowFolding, LoopInvariantHoisting, DeadCodeElimination,
               MemoryAllocationHoisting)

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"partial-evaluation[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        def fold(stmt: Stmt, rewriter: BlockRewriter) -> Optional[Const]:
            expr = stmt.expr
            if not all(isinstance(arg, Const) for arg in expr.args):
                return None
            values = [arg.value for arg in expr.args]
            # OverflowError covers e.g. huge float products: a fold that
            # cannot be computed at compile time is skipped, never raised —
            # the runtime expression keeps its own failure behaviour.
            if expr.op in _FOLDABLE and len(values) == 2:
                try:
                    return Const(_FOLDABLE[expr.op](values[0], values[1]))
                except (TypeError, ZeroDivisionError, OverflowError):
                    return None
            if expr.op == "div" and len(values) == 2 and values[1] not in (0, 0.0):
                try:
                    return Const(values[0] / values[1])
                except (TypeError, ZeroDivisionError, OverflowError):
                    return None
            if expr.op == "neg" and len(values) == 1:
                try:
                    return Const(-values[0])
                except TypeError:
                    return None
            if expr.op == "not_" and len(values) == 1:
                return Const(not values[0])
            if expr.op == "and_" and len(values) == 2:
                return Const(bool(values[0]) and bool(values[1]))
            if expr.op == "or_" and len(values) == 2:
                return Const(bool(values[0]) or bool(values[1]))
            if expr.op == "year_of_date" and len(values) == 1 and isinstance(values[0], int):
                return Const(values[0] // 10000)
            return None

        return rewrite_program(program, fold, language=program.language)
