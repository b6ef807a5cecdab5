"""Fine-grained control-flow optimizations (Appendix E of the paper).

The paper's example is rewriting ``x && y`` into ``x & y`` when both operands
are boolean and the second has no side effects, which improves branch
prediction in the generated C.  The Python analogue replaces the short-circuit
``and`` / ``or`` with the non-branching ``&`` / ``|`` operators.  The safety
condition is identical: both operands must already be evaluated (ANF
guarantees it) and boolean-valued.
"""
from __future__ import annotations

from typing import Optional

from ..ir.nodes import Atom, Program, Stmt
from ..ir.ops import is_bool
from ..ir.traversal import BlockRewriter, rewrite_program
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization
from .analysis import definition_map


class BranchlessBooleans(Optimization):
    """Replace short-circuit boolean connectives with bitwise operators."""

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"branchless-booleans[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        defs = definition_map(program)

        def rewrite(stmt: Stmt, rewriter: BlockRewriter) -> Optional[Atom]:
            if stmt.expr.op not in ("and_", "or_"):
                return None
            # band/bor too: this pass only emits them over boolean operands
            if not all(is_bool(arg, defs, logic=True) for arg in stmt.expr.args):
                return None
            op = "band" if stmt.expr.op == "and_" else "bor"
            return rewriter.emit(op, list(stmt.expr.args), hint="flag")

        return rewrite_program(program, rewrite, language=program.language)
