"""Scalar expressions used inside query-plan operators.

Predicates, projections, join keys and aggregate arguments are all scalar
expressions over the columns of the current row.  They form a small
declarative language of their own: the front ends build them, the Volcano
interpreter evaluates them row-at-a-time, and the pipelining lowering compiles
them into ANF arithmetic on column values.

Python operator overloading makes plan construction readable::

    (col("l_shipdate") <= lit(date("1998-09-02"))) & (col("l_discount") > lit(0.05))
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import dates


class ExprError(Exception):
    pass


class Expr:
    """Base class of scalar expressions (with operator-overloading sugar)."""

    __slots__ = ()

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", self, wrap(other))

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", self, wrap(other))

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", self, wrap(other))

    def __truediv__(self, other: "ExprLike") -> "BinOp":
        return BinOp("/", self, wrap(other))

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return BinOp("-", wrap(other), self)

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return BinOp("+", wrap(other), self)

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return BinOp("*", wrap(other), self)

    # -- comparisons -----------------------------------------------------
    def __eq__(self, other):  # type: ignore[override]
        return BinOp("==", self, wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return BinOp("!=", self, wrap(other))

    def __lt__(self, other: "ExprLike") -> "BinOp":
        return BinOp("<", self, wrap(other))

    def __le__(self, other: "ExprLike") -> "BinOp":
        return BinOp("<=", self, wrap(other))

    def __gt__(self, other: "ExprLike") -> "BinOp":
        return BinOp(">", self, wrap(other))

    def __ge__(self, other: "ExprLike") -> "BinOp":
        return BinOp(">=", self, wrap(other))

    # -- boolean connectives ---------------------------------------------
    def __and__(self, other: "ExprLike") -> "BinOp":
        return BinOp("and", self, wrap(other))

    def __or__(self, other: "ExprLike") -> "BinOp":
        return BinOp("or", self, wrap(other))

    def __invert__(self) -> "UnaryOp":
        return UnaryOp("not", self)

    __hash__ = None  # type: ignore[assignment]  # == builds expressions, not booleans


ExprLike = Union[Expr, int, float, str, bool]


def wrap(value: ExprLike) -> Expr:
    """Coerce Python literals into :class:`Lit` nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, str, bool)):
        return Lit(value)
    raise ExprError(f"cannot use {value!r} as a scalar expression")


@dataclass(eq=False, slots=True)
class Col(Expr):
    """A column reference.

    ``side`` is only meaningful inside join residual predicates, where it
    disambiguates columns of the left and right inputs ("left" / "right").
    """

    name: str
    side: Optional[str] = None

    def __repr__(self) -> str:
        return f"Col({self.name!r})" if self.side is None else f"Col({self.name!r}, {self.side})"


@dataclass(eq=False, slots=True)
class Lit(Expr):
    """A literal constant."""

    value: Any

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass(eq=False, slots=True)
class BinOp(Expr):
    """A binary operation: arithmetic, comparison or boolean connective."""

    op: str
    left: Expr
    right: Expr

    VALID_OPS = {"+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "and", "or"}

    def __post_init__(self) -> None:
        if self.op not in self.VALID_OPS:
            raise ExprError(f"unknown binary operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False, slots=True)
class UnaryOp(Expr):
    """Unary negation or logical not."""

    op: str
    operand: Expr

    VALID_OPS = {"not", "-"}

    def __post_init__(self) -> None:
        if self.op not in self.VALID_OPS:
            raise ExprError(f"unknown unary operator {self.op!r}")


@dataclass(eq=False, slots=True)
class Like(Expr):
    """SQL LIKE with ``%`` wildcards (the only wildcard TPC-H needs)."""

    operand: Expr
    pattern: str

    def kind(self) -> Tuple[str, str]:
        """Classify the pattern: prefix / suffix / contains / exact match."""
        pattern = self.pattern
        if pattern.startswith("%") and pattern.endswith("%"):
            return "contains", pattern.strip("%")
        if pattern.endswith("%"):
            return "prefix", pattern[:-1]
        if pattern.startswith("%"):
            return "suffix", pattern[1:]
        return "equals", pattern

    def matches(self, value: str) -> bool:
        return matches_like(value, self.pattern)


def matches_like(value: str, pattern: str) -> bool:
    """SQL ``value LIKE pattern`` with ``%`` wildcards.

    The one LIKE matcher: the interpreters call it through
    :meth:`Like.matches` and generated code as ``_rt.like``.  The pattern is
    split once, not once per row.
    """
    return _like_test(pattern)(value)


@lru_cache(maxsize=256)
def _like_test(pattern: str) -> Callable[[str], bool]:
    if "%" not in pattern:
        return lambda value: value == pattern
    first, *inner, last = pattern.split("%")
    middle = [part for part in inner if part]
    shortest, start = len(first) + len(last), len(first)
    stop = -len(last) or None  # the inner parts may not reach into the suffix

    def test(value: str) -> bool:
        # the two anchored ends may not overlap: 'ab%ab' needs four characters
        if shortest and (len(value) < shortest or not value.startswith(first)
                         or not value.endswith(last)):
            return False
        position = start
        for part in middle:
            index = value.find(part, position, stop)
            if index < 0:
                return False
            position = index + len(part)
        return True
    return test


@dataclass(eq=False, slots=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    operand: Expr
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        self.values = tuple(self.values)


@dataclass(eq=False, slots=True)
class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    otherwise: Expr

    def __post_init__(self) -> None:
        self.whens = tuple((c, v) for c, v in self.whens)


@dataclass(eq=False, slots=True)
class Substr(Expr):
    """``SUBSTRING(expr FROM start FOR length)`` (1-based, as in SQL)."""

    operand: Expr
    start: int
    length: int


@dataclass(eq=False, slots=True)
class YearOf(Expr):
    """``EXTRACT(YEAR FROM date_expr)`` over the integer date encoding."""

    operand: Expr


@dataclass(eq=False, slots=True)
class IsNull(Expr):
    """NULL test, used against the padded side of outer joins."""

    operand: Expr


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------
def col(name: str, side: Optional[str] = None) -> Col:
    return Col(name, side)


def lit(value: Any) -> Lit:
    return Lit(value)


def date(text: str) -> Lit:
    """A date literal, converted to the integer encoding at plan-build time."""
    return Lit(dates.date_to_int(text))


def like(operand: ExprLike, pattern: str) -> Like:
    return Like(wrap(operand), pattern)


def in_list(operand: ExprLike, values: Sequence[Any]) -> InList:
    return InList(wrap(operand), tuple(values))


def case(whens: Sequence[Tuple[Expr, ExprLike]], otherwise: ExprLike) -> Case:
    return Case(tuple((c, wrap(v)) for c, v in whens), wrap(otherwise))


def substr(operand: ExprLike, start: int, length: int) -> Substr:
    return Substr(wrap(operand), start, length)


def year(operand: ExprLike) -> YearOf:
    return YearOf(wrap(operand))


def is_null(operand: ExprLike) -> IsNull:
    return IsNull(wrap(operand))


def and_all(predicates: Sequence[Expr]) -> Expr:
    """Conjunction of a non-empty list of predicates."""
    if not predicates:
        return Lit(True)
    result = predicates[0]
    for predicate in predicates[1:]:
        result = BinOp("and", result, predicate)
    return result


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def columns_used(expr: Expr, side: Optional[str] = None) -> List[str]:
    """Column names referenced by an expression (optionally filtered by side)."""
    found: List[str] = []
    for name, col_side in columns_used_with_sides(expr):
        if side is None or col_side == side or col_side is None:
            if name not in found:
                found.append(name)
    return found


def columns_used_with_sides(expr: Expr) -> List[Tuple[str, Optional[str]]]:
    """``(name, side)`` pairs of every column reference in an expression.

    Unlike :func:`columns_used` this keeps the side annotation of each
    reference, which join-predicate validation and the plan optimizer need to
    resolve a column against the correct join input.  Duplicates are removed
    while preserving first-occurrence order.
    """
    found: List[Tuple[str, Optional[str]]] = []
    seen: set = set()

    def visit(node: Expr) -> None:
        if isinstance(node, Col):
            key = (node.name, node.side)
            if key not in seen:
                seen.add(key)
                found.append(key)
        elif isinstance(node, BinOp):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, UnaryOp):
            visit(node.operand)
        elif isinstance(node, (Like, InList, Substr, YearOf, IsNull)):
            visit(node.operand)
        elif isinstance(node, Case):
            for cond, value in node.whens:
                visit(cond)
                visit(value)
            visit(node.otherwise)
        elif isinstance(node, Lit):
            pass
        else:
            raise ExprError(f"unknown expression node {type(node).__name__}")

    visit(expr)
    return found


# ---------------------------------------------------------------------------
# Row-at-a-time reference evaluation: the semantics the engines' compiled
# closures (``expr_compile.compile_row``) match and constant folding runs
# ---------------------------------------------------------------------------
def evaluate(expr: Expr, row: Dict[str, Any],
             left: Optional[Dict[str, Any]] = None,
             right: Optional[Dict[str, Any]] = None) -> Any:
    """Evaluate a scalar expression against a row dictionary.

    ``left`` / ``right`` are only provided while evaluating join residual
    predicates, where sided column references resolve against the respective
    input rows.
    """
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Col):
        if expr.side == "left" and left is not None:
            return left[expr.name]
        if expr.side == "right" and right is not None:
            return right[expr.name]
        if expr.name in row:
            return row[expr.name]
        raise ExprError(f"row has no column {expr.name!r}; available: {sorted(row)}")
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return bool(evaluate(expr.left, row, left, right)) and \
                bool(evaluate(expr.right, row, left, right))
        if expr.op == "or":
            return bool(evaluate(expr.left, row, left, right)) or \
                bool(evaluate(expr.right, row, left, right))
        lhs = evaluate(expr.left, row, left, right)
        rhs = evaluate(expr.right, row, left, right)
        return _apply_binop(expr.op, lhs, rhs)
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row, left, right)
        return (not value) if expr.op == "not" else -value
    if isinstance(expr, Like):
        return expr.matches(evaluate(expr.operand, row, left, right))
    if isinstance(expr, InList):
        return evaluate(expr.operand, row, left, right) in expr.values
    if isinstance(expr, Case):
        for cond, value in expr.whens:
            if evaluate(cond, row, left, right):
                return evaluate(value, row, left, right)
        return evaluate(expr.otherwise, row, left, right)
    if isinstance(expr, Substr):
        text = evaluate(expr.operand, row, left, right)
        return text[expr.start - 1: expr.start - 1 + expr.length]
    if isinstance(expr, YearOf):
        return dates.year_of(evaluate(expr.operand, row, left, right))
    if isinstance(expr, IsNull):
        return evaluate(expr.operand, row, left, right) is None
    raise ExprError(f"cannot evaluate expression node {type(expr).__name__}")


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
    raise ExprError(f"unknown binary operator {op!r}")
