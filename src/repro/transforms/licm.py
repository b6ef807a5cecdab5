"""Loop-invariant code motion justified by the dataflow analyses.

A binding at the top level of a loop body hoists out in front of the loop
when the analyses prove the move unobservable *and* safe against
zero-iteration loops:

* **purity**: the op is pure, block-free and — because a hoisted statement
  runs even when the loop body would not — drawn from a whitelist of
  exception-free scalar ops (no ``div``, no container reads);
* **operands**: every argument is defined outside the loop body, and every
  operand is provably non-null (``lt(None, k)`` raises in Python, so
  nullability is part of the safety proof, seeded from column statistics);
* **liveness**: the binding is live — dead bindings are DCE's job, not worth
  moving.

The binding keeps its symbol, so uses inside the loop are untouched; chains
of invariant bindings hoist together (the eligibility loop iterates until no
statement moves).
"""
from __future__ import annotations

from typing import List, Set, Tuple

from ..analysis.dataflow.framework import LOOP_OPS
from ..analysis.dataflow.lattices import Nullability
from ..analysis.dataflow.liveness import liveness
from ..analysis.dataflow.values import ValueFacts, value_facts
from ..ir.nodes import Block, Const, Expr, Program, Stmt, Sym
from ..ir.traversal import same_objects
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization
from .memory_hoisting import MemoryAllocationHoisting

#: pure scalar ops that cannot raise on non-null operands
_HOISTABLE_OPS = frozenset({
    "add", "sub", "mul", "neg",
    "eq", "ne", "lt", "le", "gt", "ge",
    "and_", "or_", "not_",
    "year_of_date",
})


class LoopInvariantHoisting(Optimization):
    """Hoist provably-safe invariant bindings out of loop bodies."""

    #: a binding that leaves a top-level loop may go on to loading time;
    #: it keeps its symbol, operands and liveness, and what leaves an inner
    #: loop is offered to the outer one in the same run
    enables = (MemoryAllocationHoisting,)

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"loop-invariant-hoisting[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        facts = value_facts(program, context.catalog)
        live = liveness(program).live

        def process(block: Block) -> Block:
            new_stmts: List[Stmt] = []
            changed = False
            for stmt in block.stmts:
                expr = stmt.expr
                if expr.blocks:
                    blocks = tuple(process(nested) for nested in expr.blocks)
                    if expr.op in LOOP_OPS:
                        hoisted, body = _split_invariants(blocks[-1], facts, live)
                        new_stmts.extend(hoisted)
                        blocks = blocks[:-1] + (body,)
                    if not same_objects(blocks, expr.blocks):
                        changed = True
                        stmt = Stmt(stmt.sym, Expr(expr.op, expr.args, expr.attrs,
                                                   blocks, expr.type))
                new_stmts.append(stmt)
            if not changed:
                return block
            return Block(new_stmts, block.result, block.params)

        body = process(program.body)
        hoisted = process(program.hoisted)
        if body is program.body and hoisted is program.hoisted:
            return program
        return Program(body=body, params=program.params,
                       language=program.language, hoisted=hoisted)


def _bound_in_body(body: Block) -> Set[int]:
    bound: Set[int] = {param.id for param in body.params}

    def visit(block: Block) -> None:
        for stmt in block.stmts:
            bound.add(stmt.sym.id)
            for nested in stmt.expr.blocks:
                bound.update(param.id for param in nested.params)
                visit(nested)

    visit(body)
    return bound


def _split_invariants(body: Block, facts: ValueFacts,
                      live: frozenset) -> Tuple[List[Stmt], Block]:
    bound = _bound_in_body(body)
    hoisted: List[Stmt] = []
    remaining = list(body.stmts)
    moved = True
    while moved:
        moved = False
        still: List[Stmt] = []
        for stmt in remaining:
            if _invariant(stmt, bound, facts, live):
                hoisted.append(stmt)
                bound.discard(stmt.sym.id)
                moved = True
            else:
                still.append(stmt)
        remaining = still
    if not hoisted:
        return [], body
    return hoisted, Block(remaining, body.result, body.params)


def _invariant(stmt: Stmt, bound: Set[int], facts: ValueFacts,
               live: frozenset) -> bool:
    expr = stmt.expr
    if expr.op not in _HOISTABLE_OPS or expr.blocks:
        return False
    if stmt.sym.id not in live:
        return False  # dead bindings are DCE's job
    for arg in expr.args:
        if isinstance(arg, Sym):
            if arg.id in bound:
                return False
            if facts.fact_of(arg.id).nullability is not Nullability.NON_NULL:
                return False
        elif isinstance(arg, Const):
            if arg.value is None:
                return False
        else:
            return False
    return True
