"""Generic traversals and rewrites over ANF blocks.

These utilities are the work-horses of every optimization and lowering in
:mod:`repro.transforms`: walking statements recursively, computing used and
free symbols, substituting atoms, and rebuilding blocks through a rewrite
callback.
"""
from __future__ import annotations

from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from . import ops as op_registry
from .effects import Effect
from .nodes import Atom, Block, Expr, Program, Stmt, Sym
from .types import Type


def iter_stmts(block: Block, recursive: bool = True) -> Iterator[Tuple[Stmt, Block]]:
    """Yield ``(stmt, enclosing_block)`` pairs, optionally descending into nested blocks."""
    for stmt in block.stmts:
        yield stmt, block
        if recursive:
            for nested in stmt.expr.blocks:
                yield from iter_stmts(nested, recursive=True)


def iter_program_stmts(program: Program) -> Iterator[Tuple[Stmt, Block]]:
    """Yield every statement of a program (hoisted block first)."""
    yield from iter_stmts(program.hoisted)
    yield from iter_stmts(program.body)


def used_syms(block: Block) -> Set[Sym]:
    """All symbols referenced (as arguments or results) anywhere inside a block."""
    used: Set[Sym] = set()

    def visit(blk: Block) -> None:
        for stmt in blk.stmts:
            for arg in stmt.expr.args:
                if isinstance(arg, Sym):
                    used.add(arg)
            for nested in stmt.expr.blocks:
                visit(nested)
        if isinstance(blk.result, Sym):
            used.add(blk.result)

    visit(block)
    return used


def same_objects(new: Sequence, old: Sequence) -> bool:
    """Whether two equally long sequences hold the same objects, pairwise.

    The "did anything change" test of every path-copying rewrite: a pass
    that changes nothing returns its input, all the way down.
    """
    return all(a is b for a, b in zip(new, old))


def substitute_atom(atom: Atom, mapping: Dict[Sym, Atom]) -> Atom:
    if isinstance(atom, Sym):
        return mapping.get(atom, atom)
    return atom


def substitute_block(block: Block, mapping: Dict[Sym, Atom]) -> Block:
    """Return a copy of ``block`` with argument symbols replaced per ``mapping``.

    Bindings themselves keep their symbols; only uses are substituted.
    """
    new_stmts: List[Stmt] = []
    for stmt in block.stmts:
        expr = stmt.expr
        new_args = tuple(substitute_atom(a, mapping) for a in expr.args)
        new_blocks = tuple(substitute_block(b, mapping) for b in expr.blocks)
        new_stmts.append(Stmt(stmt.sym, Expr(expr.op, new_args, dict(expr.attrs),
                                             new_blocks, expr.type)))
    return Block(new_stmts, substitute_atom(block.result, mapping), block.params)


def block_effect(block: Block) -> Effect:
    """Combined effect summary of every statement in a block (recursively)."""
    effect = Effect()
    for stmt, _ in iter_stmts(block):
        effect = effect.union(op_registry.effect_of(stmt.expr.op))
    return effect


def count_ops(program: Program) -> Dict[str, int]:
    """Histogram of op names in a program (used by tests and reports)."""
    counts: Dict[str, int] = {}
    for stmt, _ in iter_program_stmts(program):
        counts[stmt.expr.op] = counts.get(stmt.expr.op, 0) + 1
    return counts


def ops_used(program: Program) -> Set[str]:
    return set(count_ops(program))


RewriteFn = Callable[[Stmt, "BlockRewriter"], Optional[Atom]]


class BlockRewriter:
    """Rebuilds a block, letting a callback replace individual statements.

    The callback receives each statement (with its argument atoms already
    remapped) and the rewriter itself; it can emit replacement statements via
    :meth:`emit` and return the atom that stands for the original statement's
    result.  Returning ``None`` keeps the statement unchanged.

    The rebuild is path-copying: a statement with no substituted argument, no
    replacement and no rewritten nested block is kept as the same object, a
    block whose statements and result were all kept is returned as the same
    :class:`Block`, and likewise the :class:`Program`.  A pass built on the
    rewriter therefore returns its input when it rewrote nothing, which is
    how the fixpoint driver knows (statements are shared between the input
    and the output, so neither may be mutated afterwards).
    """

    def __init__(self, rewrite: RewriteFn) -> None:
        self._rewrite = rewrite
        self._mapping: Dict[Sym, Atom] = {}
        self._out_stack: List[List[Stmt]] = []

    # -- emission API available to rewrite callbacks -----------------------
    def emit(self, op: str, args: Iterable[Atom] = (), attrs: Optional[dict] = None,
             blocks: Tuple[Block, ...] = (), tpe: Optional[Type] = None,
             hint: str = "x") -> Sym:
        from .types import UNKNOWN
        result_type = tpe if tpe is not None else UNKNOWN
        sym = Sym(hint, result_type)
        expr = Expr(op, tuple(args), dict(attrs or {}), tuple(blocks), result_type)
        self._out_stack[-1].append(Stmt(sym, expr))
        return sym

    def rewrite_nested(self, block: Block) -> Block:
        """Rewrite a nested block with the same callback (used for control flow)."""
        return self._rewrite_block(block)

    def resolve(self, atom: Atom) -> Atom:
        return substitute_atom(atom, self._mapping)

    # -- main entry point ---------------------------------------------------
    def rewrite_block(self, block: Block) -> Block:
        return self._rewrite_block(block)

    def rewrite_program(self, program: Program) -> Program:
        hoisted = self._rewrite_block(program.hoisted)
        body = self._rewrite_block(program.body)
        if hoisted is program.hoisted and body is program.body:
            return program
        return Program(body=body, params=program.params, language=program.language,
                       hoisted=hoisted)

    # -- internals ----------------------------------------------------------
    def _rewrite_block(self, block: Block) -> Block:
        mapping = self._mapping
        out: List[Stmt] = []
        self._out_stack.append(out)
        for stmt in block.stmts:
            expr = stmt.expr
            remapped = stmt
            if mapping:
                args = tuple(substitute_atom(a, mapping) for a in expr.args)
                if not same_objects(args, expr.args):
                    remapped = Stmt(stmt.sym, Expr(expr.op, args, expr.attrs,
                                                   expr.blocks, expr.type))
            replacement = self._rewrite(remapped, self)
            if replacement is None:
                # Keep the statement, but still rewrite its nested blocks.
                if expr.blocks:
                    new_blocks = tuple(self._rewrite_block(b) for b in expr.blocks)
                    if not same_objects(new_blocks, expr.blocks):
                        remapped = Stmt(stmt.sym, Expr(expr.op, remapped.expr.args,
                                                       expr.attrs, new_blocks, expr.type))
                out.append(remapped)
            else:
                mapping[stmt.sym] = replacement
        self._out_stack.pop()
        result = substitute_atom(block.result, mapping)
        if (result is block.result and len(out) == len(block.stmts)
                and same_objects(out, block.stmts)):
            return block
        return Block(out, result, block.params)


def rewrite_program(program: Program, rewrite: RewriteFn,
                    language: Optional[str] = None) -> Program:
    """Convenience wrapper: rewrite a whole program with a statement callback.

    Returns ``program`` itself when the callback rewrote nothing and the
    language is unchanged.
    """
    result = BlockRewriter(rewrite).rewrite_program(program)
    if language is not None and language != result.language:
        # relabel a copy: ``result`` may be the caller's own ``program``
        result = Program(body=result.body, params=result.params,
                         language=language, hoisted=result.hoisted)
    return result
