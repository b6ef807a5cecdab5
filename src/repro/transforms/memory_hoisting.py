"""Domain-specific code motion: hoisting work to data-loading time (Section D).

Statements at the top level of the query body that only depend on the database
parameter (and on other already-hoisted values) and that do not mutate state
visible to the rest of the body can be executed once at loading time instead
of on the query's critical path: column lookups, table sizes, dictionary
builds and code lookups.  They are moved into the program's hoisted block,
which the compiled artefact exposes as ``prepare``.
"""
from __future__ import annotations

from typing import List, Set

from ..ir.nodes import Block, Program, Stmt, Sym
from ..ir.ops import effect_of
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization

#: ops that are always safe to evaluate at loading time when their inputs are
HOISTABLE_OPS = {
    "table_size", "table_column",
    "strdict_build", "strdict_encode_column", "strdict_code", "strdict_prefix_range",
}


class MemoryAllocationHoisting(Optimization):
    """Move loading-time-evaluable statements from the body to the hoisted block."""

    #: a block-free statement moves from the top of the body to the hoisted
    #: block with its symbol and operands: no use, fact or loop body changes,
    #: and one run in definition order moves whole chains
    enables = ()

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"allocation-hoisting[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        available: Set[int] = {param.id for param in program.params}
        available |= {stmt.sym.id for stmt in program.hoisted.stmts}

        hoisted_stmts: List[Stmt] = list(program.hoisted.stmts)
        remaining: List[Stmt] = []
        for stmt in program.body.stmts:
            if self._can_hoist(stmt, available):
                hoisted_stmts.append(stmt)
                available.add(stmt.sym.id)
            else:
                remaining.append(stmt)

        if len(remaining) == len(program.body.stmts):
            return program
        return Program(
            body=Block(remaining, program.body.result, program.body.params),
            params=program.params,
            language=program.language,
            hoisted=Block(hoisted_stmts, program.hoisted.result, program.hoisted.params))

    @staticmethod
    def _can_hoist(stmt: Stmt, available: Set[int]) -> bool:
        expr = stmt.expr
        if expr.blocks:
            return False
        effect = effect_of(expr.op)
        hoistable = expr.op in HOISTABLE_OPS or effect.pure
        if not hoistable:
            return False
        for arg in expr.args:
            if isinstance(arg, Sym) and arg.id not in available:
                return False
        return True
