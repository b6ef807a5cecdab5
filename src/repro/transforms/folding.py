"""Analysis-driven predicate folding and dead-branch elimination.

Where :mod:`repro.transforms.partial_eval` folds operations whose arguments
are literal constants, this pass folds predicates whose *value facts* are
provable from the interval + nullability analysis
(:mod:`repro.analysis.dataflow.values`), which is seeded from the catalog's
load-time statistics:

* a comparison whose operand intervals do not overlap folds to its constant
  verdict (``lt(year, 2050)`` with ``year`` inside the column's [min, max]);
* a null check against a column with zero nulls folds the same way;
* an ``if_`` whose condition folded becomes its taken arm, spliced into the
  enclosing block — provided the dropped arm is effect-free, so removing it
  is unobservable.

Every eliminated branch records a justification in
``context.info["dataflow_justifications"]`` under the ``if_`` binding's sym
id; the verifier's transition audit refuses the unwrap without it and
re-proves the condition on the input program.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis.dataflow.framework import use_def
from ..analysis.dataflow.values import ValueFacts, value_facts
from ..ir.nodes import Atom, Block, Const, Expr, Program, Stmt, Sym
from ..ir.traversal import block_effect, same_objects
from ..stack.context import CompilationContext
from ..stack.language import Language
from ..stack.transformation import Optimization

#: pure boolean-valued ops eligible for verdict folding
_PREDICATE_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge",
                            "and_", "or_", "not_"})


class DataflowFolding(Optimization):
    """Fold provably-constant predicates and eliminate decided branches."""

    #: every step: unwrapping a decided branch hands its consumers the taken
    #: arm's record or constant, tightens the facts of what the ``if_`` used
    #: to join (this pass again), lifts statements a block up and drops uses
    enables = None

    def __init__(self, language: Language) -> None:
        super().__init__(language)
        self.name = f"dataflow-folding[{language.name}]"

    def run(self, program: Program, context: CompilationContext) -> Program:
        facts = value_facts(program, context.catalog)
        folder = _Folder(facts, use_def(program).uses)
        hoisted = folder.rewrite_block(program.hoisted)
        body = folder.rewrite_block(program.body)
        if hoisted is program.hoisted and body is program.body:
            return program
        if folder.justifications:
            context.info.setdefault("dataflow_justifications", {}).update(
                folder.justifications)
        return Program(body=body, params=program.params,
                       language=program.language, hoisted=hoisted)


class _Folder:
    def __init__(self, facts: ValueFacts, uses: Dict[int, int]) -> None:
        self.facts = facts
        self.uses = uses
        self.mapping: Dict[int, Atom] = {}
        self.justifications: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def subst(self, atom: Atom) -> Atom:
        if isinstance(atom, Sym):
            return self.mapping.get(atom.id, atom)
        return atom

    def rewrite_block(self, block: Block) -> Block:
        """``block`` folded; the same object when nothing in it folded."""
        new_stmts: List[Stmt] = []
        changed = False
        for stmt in block.stmts:
            expr = stmt.expr
            args = tuple(self.subst(arg) for arg in expr.args)

            if expr.op == "if_":
                verdict = self._branch_verdict(args[0] if args else None)
                if verdict is not None:
                    taken = expr.blocks[0] if verdict else expr.blocks[1]
                    dropped = expr.blocks[1] if verdict else expr.blocks[0]
                    result_is_none = isinstance(taken.result, Const) \
                        and taken.result.value is None
                    # Unwrapping a branch whose taken arm yields None would
                    # substitute a None literal into every consumer —
                    # unreachable code, but it unparses as ``None[...]`` for
                    # subscripting consumers.  Keep the branch instead.
                    if block_effect(dropped).removable_if_unused and not (
                            result_is_none and self.uses.get(stmt.sym.id, 0) > 0):
                        spliced = self.rewrite_block(taken)
                        new_stmts.extend(spliced.stmts)
                        self.mapping[stmt.sym.id] = self.subst(spliced.result)
                        self.justifications[stmt.sym.id] = (
                            f"if_ condition provably "
                            f"{'true' if verdict else 'false'} "
                            "(interval/nullability analysis)")
                        changed = True
                        continue

            folded = self._fold_predicate(stmt, args)
            if folded is not None:
                self.mapping[stmt.sym.id] = folded
                changed = True
                continue

            blocks = expr.blocks
            if blocks:
                rewritten = tuple(self.rewrite_block(nested) for nested in blocks)
                if not same_objects(rewritten, blocks):
                    blocks = rewritten
            if args != expr.args or blocks is not expr.blocks:
                stmt = Stmt(stmt.sym, Expr(expr.op, args, expr.attrs, blocks,
                                           expr.type))
                changed = True
            new_stmts.append(stmt)
        result = self.subst(block.result)
        if not changed and result is block.result:
            return block
        return Block(new_stmts, result, block.params)

    # ------------------------------------------------------------------
    def _branch_verdict(self, cond: Optional[Atom]) -> Optional[bool]:
        if isinstance(cond, Const):
            return bool(cond.value)
        if isinstance(cond, Sym):
            interval = self.facts.fact_of(cond.id).interval
            if interval.known_true:
                return True
            if interval.known_false:
                return False
        return None

    def _fold_predicate(self, stmt: Stmt, args: tuple) -> Optional[Const]:
        if stmt.expr.op not in _PREDICATE_OPS or stmt.expr.blocks:
            return None
        if all(isinstance(arg, Const) for arg in args):
            return None  # literal folding is partial evaluation's job
        fact = self.facts.fact_of(stmt.sym.id)
        if fact.interval.known_true:
            return Const(True)
        if fact.interval.known_false:
            return Const(False)
        return None
