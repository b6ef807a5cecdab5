"""The reference evaluator of the scalar expression language.

A tree walk written apart from the code the engines run: the compiled
closures of :mod:`repro.dsl.expr_compile` and constant folding
(:func:`repro.planner.exprs.fold_node`) are checked against it.
"""
from typing import Any, Dict, Optional

from repro import dates
from repro.dsl import expr as E


def evaluate(expr: E.Expr, row: Dict[str, Any],
             left: Optional[Dict[str, Any]] = None,
             right: Optional[Dict[str, Any]] = None) -> Any:
    """Evaluate a scalar expression against a row dictionary.

    ``left`` / ``right`` are only provided while evaluating join residual
    predicates, where sided column references resolve against the respective
    input rows.
    """
    if isinstance(expr, E.Lit):
        return expr.value
    if isinstance(expr, E.Col):
        if expr.side == "left" and left is not None:
            return left[expr.name]
        if expr.side == "right" and right is not None:
            return right[expr.name]
        if expr.name in row:
            return row[expr.name]
        raise E.ExprError(f"row has no column {expr.name!r}; available: {sorted(row)}")
    if isinstance(expr, E.BinOp):
        if expr.op == "and":
            return bool(evaluate(expr.left, row, left, right)) and \
                bool(evaluate(expr.right, row, left, right))
        if expr.op == "or":
            return bool(evaluate(expr.left, row, left, right)) or \
                bool(evaluate(expr.right, row, left, right))
        lhs = evaluate(expr.left, row, left, right)
        rhs = evaluate(expr.right, row, left, right)
        return _apply_binop(expr.op, lhs, rhs)
    if isinstance(expr, E.UnaryOp):
        value = evaluate(expr.operand, row, left, right)
        return (not value) if expr.op == "not" else -value
    if isinstance(expr, E.Like):
        return expr.matches(evaluate(expr.operand, row, left, right))
    if isinstance(expr, E.InList):
        return evaluate(expr.operand, row, left, right) in expr.values
    if isinstance(expr, E.Case):
        for cond, value in expr.whens:
            if evaluate(cond, row, left, right):
                return evaluate(value, row, left, right)
        return evaluate(expr.otherwise, row, left, right)
    if isinstance(expr, E.Substr):
        text = evaluate(expr.operand, row, left, right)
        return text[expr.start - 1: expr.start - 1 + expr.length]
    if isinstance(expr, E.YearOf):
        return dates.year_of(evaluate(expr.operand, row, left, right))
    if isinstance(expr, E.IsNull):
        return evaluate(expr.operand, row, left, right) is None
    raise E.ExprError(f"cannot evaluate expression node {type(expr).__name__}")


def _apply_binop(op: str, lhs: Any, rhs: Any) -> Any:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return lhs / rhs
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise E.ExprError(f"unknown binary operator {op!r}")
