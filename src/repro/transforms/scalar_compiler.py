"""Compilation of scalar expressions into ANF operations.

This is the counterpart of :func:`repro.dsl.expr_compile.compile_row`: instead
of a closure the engines call per row, it emits the equivalent ANF statements
once, operating on the atoms of the current :class:`RowVals`.  The ANF op of
each operator is its row of :data:`repro.dsl.expr.OPERATORS`.
"""
from __future__ import annotations

from typing import Any, Optional, Sequence

from ..dsl import expr as E
from ..ir.builder import IRBuilder
from ..ir.nodes import Atom, Const
from ..ir.types import BOOL, FLOAT, INT, STRING
from .rowvals import RowVals


class ScalarCompileError(Exception):
    pass


def literal_expr(op: str, values: Sequence[Any]) -> Optional[E.Expr]:
    """The scalar node that :meth:`ScalarCompiler.compile` lowers to ``op``,
    with ``values`` as its literal operands; ``None`` when no node lowers to
    ``op`` alone.  What a pure op over literals computes is what this node's
    :func:`~repro.dsl.expr_compile.compile_row` closure returns."""
    literals = [E.Lit(value) for value in values]
    operator = E.BY_IR_OP.get(op)
    if operator is not None and operator.arity == len(literals):
        return (E.BinOp if operator.arity == 2 else E.UnaryOp)(operator.symbol, *literals)
    if op == "year_of_date" and len(literals) == 1:
        return E.YearOf(literals[0])
    return None


class ScalarCompiler:
    """Compiles :mod:`repro.dsl.expr` trees into ANF atoms."""

    def __init__(self, builder: IRBuilder) -> None:
        self.builder = builder

    def compile(self, node: E.Expr, row: RowVals,
                left: Optional[RowVals] = None,
                right: Optional[RowVals] = None) -> Atom:
        b = self.builder
        if isinstance(node, E.Lit):
            return b.const(node.value)
        if isinstance(node, E.Col):
            if node.side == "left" and left is not None:
                return left.get(node.name)
            if node.side == "right" and right is not None:
                return right.get(node.name)
            return row.get(node.name)
        if isinstance(node, E.BinOp):
            lhs = self.compile(node.left, row, left, right)
            rhs = self.compile(node.right, row, left, right)
            return b.emit(E.BINARY[node.op].ir_op, [lhs, rhs])
        if isinstance(node, E.UnaryOp):
            operand = self.compile(node.operand, row, left, right)
            return b.emit(E.UNARY[node.op].ir_op, [operand])
        if isinstance(node, E.Like):
            return self._compile_like(node, row, left, right)
        if isinstance(node, E.InList):
            operand = self.compile(node.operand, row, left, right)
            return b.emit("str_in", [operand], attrs={"values": tuple(node.values)}, tpe=BOOL)
        if isinstance(node, E.Case):
            return self._compile_case(node, row, left, right)
        if isinstance(node, E.Substr):
            operand = self.compile(node.operand, row, left, right)
            return b.emit("str_substr", [operand],
                          attrs={"start": node.start, "length": node.length}, tpe=STRING)
        if isinstance(node, E.YearOf):
            operand = self.compile(node.operand, row, left, right)
            return b.emit("year_of_date", [operand], tpe=INT)
        if isinstance(node, E.IsNull):
            operand = self.compile(node.operand, row, left, right)
            return b.emit("eq", [operand, Const(None)], tpe=BOOL)
        raise ScalarCompileError(f"cannot compile expression node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Specific constructs
    # ------------------------------------------------------------------
    def _compile_like(self, node: E.Like, row, left, right) -> Atom:
        b = self.builder
        operand = self.compile(node.operand, row, left, right)
        kind, needle = node.kind()
        if "%" in needle:
            return b.emit("str_like", [operand], attrs={"pattern": node.pattern}, tpe=BOOL)
        if kind == "prefix":
            return b.emit("str_startswith", [operand, b.const(needle)], tpe=BOOL)
        if kind == "suffix":
            return b.emit("str_endswith", [operand, b.const(needle)], tpe=BOOL)
        if kind == "contains":
            return b.emit("str_contains", [operand, b.const(needle)], tpe=BOOL)
        return b.emit("eq", [operand, b.const(needle)], tpe=BOOL)

    def _compile_case(self, node: E.Case, row, left, right, index: int = 0) -> Atom:
        # a method, not a recursive closure: a closure that calls itself is a
        # reference cycle, which would keep ``row`` (and what its origins
        # reach, the catalog among it) alive until a gc pass
        if index >= len(node.whens):
            return self.compile(node.otherwise, row, left, right)
        cond_expr, value_expr = node.whens[index]
        cond = self.compile(cond_expr, row, left, right)
        return self.builder.if_(
            cond,
            lambda: self.compile(value_expr, row, left, right),
            lambda: self._compile_case(node, row, left, right, index + 1),
            tpe=FLOAT)
