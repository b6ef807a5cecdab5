"""Scalar expressions used inside query-plan operators.

Predicates, projections, join keys and aggregate arguments are all scalar
expressions over the columns of the current row.  They form a small
declarative language of their own: the front ends build them, the Volcano
interpreter evaluates them row-at-a-time, and the pipelining lowering compiles
them into ANF arithmetic on column values.

Python operator overloading makes plan construction readable::

    (col("l_shipdate") <= lit(date("1998-09-02"))) & (col("l_discount") > lit(0.05))

This module is the one place that knows the language: its node kinds, how to
walk and rebuild their children (:func:`children`, :func:`map_children`) and
its operators (:data:`OPERATORS`).  What an expression computes is what its
compiled closure (:func:`repro.dsl.expr_compile.compile_row`) returns.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .. import dates


class ExprError(Exception):
    pass


class Operator(NamedTuple):
    """One operator of the scalar language."""

    #: its spelling in a plan, which is also its Python spelling
    symbol: str
    arity: int
    #: the ANF op it lowers to (a row of :mod:`repro.ir.ops`)
    ir_op: str
    #: whether it always yields a ``bool``
    boolean: bool
    #: the comparison that gives the same answer with the operands swapped
    flipped: Optional[str] = None


OPERATORS = (
    Operator("+", 2, "add", False), Operator("-", 2, "sub", False),
    Operator("*", 2, "mul", False), Operator("/", 2, "div", False),
    Operator("==", 2, "eq", True, "=="), Operator("!=", 2, "ne", True, "!="),
    Operator("<", 2, "lt", True, ">"), Operator("<=", 2, "le", True, ">="),
    Operator(">", 2, "gt", True, "<"), Operator(">=", 2, "ge", True, "<="),
    Operator("and", 2, "and_", True), Operator("or", 2, "or_", True),
    Operator("not", 1, "not_", True), Operator("-", 1, "neg", False),
)
#: the operators of :class:`BinOp` / :class:`UnaryOp` by symbol, and all by ANF op
BINARY = {o.symbol: o for o in OPERATORS if o.arity == 2}
UNARY = {o.symbol: o for o in OPERATORS if o.arity == 1}
BY_IR_OP = {o.ir_op: o for o in OPERATORS}


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

    def __post_init__(self) -> None:
        if self.op not in BINARY:
            raise ExprError(f"unknown binary operator {self.op!r}")

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(eq=False, slots=True)
class UnaryOp(Expr):
    """Unary negation or logical not."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UNARY:
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


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten a tree of ``and`` connectives into its conjuncts (in order)."""
    if isinstance(expr, BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def literal_source(value: Any) -> str:
    """Python source of a literal value: its ``repr``, except that a
    non-finite float, which has no literal, is spelled ``float('inf')``,
    in a tuple too."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({str(value)!r})"
    if isinstance(value, tuple):
        items = ", ".join(map(literal_source, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


# ---------------------------------------------------------------------------
# Children: each kind's operands in order (a ``Case`` is each condition then
# its value, then ``otherwise``), and its rebuild from new ones
# ---------------------------------------------------------------------------
class _ByKind(dict):
    def __missing__(self, kind: type) -> Any:
        raise ExprError(f"unknown expression node {kind.__name__}")


def _operand(node: Any) -> Tuple[Expr, ...]:
    return (node.operand,)


#: each kind's operands as a tuple (``None`` for a leaf)
_CHILDREN: Dict[type, Optional[Callable[[Any], Tuple[Expr, ...]]]] = _ByKind({
    Lit: None, Col: None,
    BinOp: operator.attrgetter("left", "right"),
    UnaryOp: _operand, Like: _operand, InList: _operand, Substr: _operand,
    YearOf: _operand, IsNull: _operand,
    Case: lambda node: (*chain.from_iterable(node.whens), node.otherwise),
})

_REBUILD: Dict[type, Callable[[Any, Tuple[Expr, ...]], Expr]] = {
    BinOp: lambda node, new: BinOp(node.op, *new),
    UnaryOp: lambda node, new: UnaryOp(node.op, *new),
    Like: lambda node, new: Like(new[0], node.pattern),
    InList: lambda node, new: InList(new[0], node.values),
    Substr: lambda node, new: Substr(new[0], node.start, node.length),
    YearOf: lambda node, new: YearOf(*new),
    IsNull: lambda node, new: IsNull(*new),
    Case: lambda node, new: Case(tuple(zip(new[:-1:2], new[1:-1:2])), new[-1]),
}


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The operands of ``expr``, in order."""
    walk = _CHILDREN[type(expr)]
    return () if walk is None else walk(expr)


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """``expr`` with ``fn`` applied to each of its operands in order:
    ``expr`` itself when ``fn`` returned every operand unchanged."""
    walk = _CHILDREN[type(expr)]
    if walk is None:
        return expr
    old = walk(expr)
    new = tuple(map(fn, old))
    if all(map(operator.is_, new, old)):
        return expr
    return _REBUILD[type(expr)](expr, new)


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
            return
        for child in children(node):
            visit(child)

    visit(expr)
    return found
