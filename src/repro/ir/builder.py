"""ANF construction with hash-consing ("CSE for free").

Section 3.3 of the paper explains that while converting sub-expressions to
immutable bindings, the compiler can look up an existing binding with the same
operator and the same arguments and reuse it, obtaining common-subexpression
elimination as a by-product of building the IR.  :class:`IRBuilder` implements
exactly that: ``emit`` returns an existing symbol whenever an equivalent pure
expression has already been emitted in a visible scope.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from . import ops as op_registry
from .nodes import Atom, Block, Const, Expr, Program, Stmt, Sym, is_atom
from .types import BOOL, FLOAT, INT, STRING, Type, UNIT, UNKNOWN


class _Scope:
    """One lexical scope: a block under construction plus its CSE table."""

    def __init__(self, params: Tuple[Sym, ...] = ()) -> None:
        self.block = Block(params=params)
        self.cse: Dict[Tuple, Sym] = {}


class IRBuilder:
    """Builds ANF blocks statement by statement.

    The builder maintains a stack of open scopes.  Control-flow ops open child
    scopes through :meth:`new_block`; pure expressions are hash-consed against
    all enclosing scopes, so a sub-expression computed in an outer scope is
    reused instead of recomputed (the paper's ``R_A * R_B`` example).
    """

    def __init__(self) -> None:
        self._scopes: List[_Scope] = [_Scope()]

    # ------------------------------------------------------------------
    # Atom helpers
    # ------------------------------------------------------------------
    def const(self, value: Any, tpe: Optional[Type] = None) -> Const:
        """Wrap a Python value as a constant atom, inferring a type if needed."""
        if tpe is None:
            tpe = _infer_const_type(value)
        return Const(value, tpe)

    def as_atom(self, value: Any) -> Atom:
        """Coerce a raw Python value or an atom into an atom."""
        if is_atom(value):
            return value
        return self.const(value)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, op: str, args: Sequence[Any] = (), attrs: Optional[Dict[str, Any]] = None,
             blocks: Sequence[Block] = (), tpe: Type = UNKNOWN, hint: Optional[str] = None) -> Sym:
        """Emit one statement and return the symbol bound to its result.

        Pure expressions that were already emitted in a visible scope are not
        re-emitted; the previously bound symbol is returned instead.
        """
        opdef = op_registry.REGISTRY.get(op)
        if len(blocks) != len(opdef.blocks):
            raise ValueError(
                f"op {op!r} expects {len(opdef.blocks)} nested block(s), got {len(blocks)}")
        expr = Expr(op, tuple(self.as_atom(a) for a in args), dict(attrs or {}),
                    tuple(blocks), tpe)

        if opdef.effect.pure:
            key = expr.cse_key()
            if key is not None:
                existing = self._lookup_cse(key)
                if existing is not None:
                    return existing
        sym = Sym(hint or _default_hint(op), tpe)
        self._current.block.stmts.append(Stmt(sym, expr))
        if opdef.effect.pure:
            key = expr.cse_key()
            if key is not None:
                self._current.cse[key] = sym
        return sym

    def emit_stmt(self, stmt: Stmt) -> Sym:
        """Append an existing statement verbatim (used by block rewriters)."""
        self._current.block.stmts.append(stmt)
        opdef = op_registry.REGISTRY.get(stmt.expr.op)
        if opdef.effect.pure:
            key = stmt.expr.cse_key()
            if key is not None and key not in self._current.cse:
                self._current.cse[key] = stmt.sym
        return stmt.sym

    # ------------------------------------------------------------------
    # Scope management
    # ------------------------------------------------------------------
    @contextmanager
    def new_block(self, params: Union[int, Sequence[Sym]] = 0,
                  hints: Sequence[str] = (),
                  types: Sequence[Type] = ()) -> Iterator[Tuple[Block, Tuple[Sym, ...]]]:
        """Open a nested block (loop body, branch arm, lambda body).

        Yields ``(block, params)``; the block must be finished by setting its
        ``result`` (via :meth:`set_result`) before the context exits if a
        non-unit result is needed.
        """
        if isinstance(params, int):
            syms = tuple(
                Sym(hints[i] if i < len(hints) else "p",
                    types[i] if i < len(types) else UNKNOWN)
                for i in range(params)
            )
        else:
            syms = tuple(params)
        scope = _Scope(syms)
        self._scopes.append(scope)
        try:
            yield scope.block, syms
        finally:
            self._scopes.pop()

    def set_result(self, atom: Any) -> None:
        """Set the result atom of the innermost open block."""
        self._current.block.result = self.as_atom(atom)

    def finish(self, result: Any = None) -> Block:
        """Close the builder and return the top-level block."""
        if len(self._scopes) != 1:
            raise RuntimeError("finish() called with nested blocks still open")
        if result is not None:
            self.set_result(result)
        return self._scopes[0].block

    # ------------------------------------------------------------------
    # Convenience wrappers used heavily by the lowerings
    # ------------------------------------------------------------------
    def if_(self, cond: Any, then_fn: Callable[[], Any],
            else_fn: Optional[Callable[[], Any]] = None, tpe: Type = UNIT) -> Sym:
        """Emit a conditional; the branch functions receive this builder."""
        with self.new_block() as (then_block, _):
            result = then_fn()
            if result is not None:
                self.set_result(result)
        with self.new_block() as (else_block, _):
            if else_fn is not None:
                result = else_fn()
                if result is not None:
                    self.set_result(result)
        return self.emit("if_", [cond], blocks=[then_block, else_block], tpe=tpe)

    def for_range(self, start: Any, end: Any, body_fn: Callable[[Sym], Any],
                  hint: str = "i") -> Sym:
        """Emit a bounded loop; ``body_fn`` receives the index symbol."""
        with self.new_block(params=1, hints=[hint], types=[INT]) as (body, (idx,)):
            body_fn(idx)
        return self.emit("for_range", [start, end], blocks=[body], tpe=UNIT)

    def while_(self, cond_fn: Callable[[], Any], body_fn: Callable[[], Any]) -> Sym:
        """Emit a while loop; the condition block result is the loop condition."""
        with self.new_block() as (cond_block, _):
            self.set_result(cond_fn())
        with self.new_block() as (body_block, _):
            body_fn()
        return self.emit("while_", [], blocks=[cond_block, body_block], tpe=UNIT)

    def foreach(self, collection: Any, body_fn: Callable[[Sym], Any], op: str = "list_foreach",
                hint: str = "e", tpe: Type = UNKNOWN) -> Sym:
        """Emit a foreach over a list-like collection."""
        with self.new_block(params=1, hints=[hint], types=[tpe]) as (body, (elem,)):
            body_fn(elem)
        return self.emit(op, [collection], blocks=[body], tpe=UNIT)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def _current(self) -> _Scope:
        return self._scopes[-1]

    def _lookup_cse(self, key: Tuple) -> Optional[Sym]:
        for scope in reversed(self._scopes):
            sym = scope.cse.get(key)
            if sym is not None:
                return sym
        return None


def _infer_const_type(value: Any) -> Type:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return STRING
    if value is None:
        return UNIT
    return UNKNOWN


def _default_hint(op: str) -> str:
    prefixes = {
        "var_new": "v",
        "list_new": "lst",
        "array_new": "arr",
        "mmap_new": "hm",
        "hashmap_agg_new": "agg",
        "record_new": "rec",
        "for_range": "loop",
        "table_column": "col",
        "table_size": "n",
    }
    return prefixes.get(op, "x")


def make_program(body: Block, params: Sequence[Sym], language: str,
                 hoisted: Optional[Block] = None) -> Program:
    """Assemble a :class:`~repro.ir.nodes.Program` from built blocks."""
    return Program(body=body, params=tuple(params), language=language,
                   hoisted=hoisted if hoisted is not None else Block())
