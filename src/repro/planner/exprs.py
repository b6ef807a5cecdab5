"""Scalar-expression analysis and rewriting used by the plan optimizer.

Everything here is pure tree surgery over :mod:`repro.dsl.expr` nodes:
rebuilding conjunctions for predicate pushdown, column substitution for pushing
filters through projections and aggregations, side flipping for join-input
swaps, and compile-time constant folding.

Folding runs the closure the engines run,
:func:`repro.dsl.expr_compile.compile_row`, of a node whose operands are all
literals (passed in as a row), so a fold is value-identical to runtime
evaluation by construction.  A division by a constant zero is
*skipped* rather than raised, and ``TypeError`` / ``ZeroDivisionError`` /
``OverflowError`` during folding abandon the fold instead of failing
compilation, and so does a result that is a non-finite float (folding
leaves ``inf`` and ``nan`` to run time).  The ScaLite
:class:`~repro.transforms.folding.DataflowFolding` folds an IR op over
literals through the same :func:`fold_node`.
"""
from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dsl import expr as E
from ..dsl.expr_compile import compile_row

_FOLD_ERRORS = (TypeError, ZeroDivisionError, OverflowError)
#: a fold's operands go in as the columns of a row, not as source: in source,
#: ``0 is None`` or ``None[0:2]`` is a SyntaxWarning at compile time
_OPERAND_NAMES = ("0", "1")


# ---------------------------------------------------------------------------
# Conjunctions
# ---------------------------------------------------------------------------
def conjoin(conjuncts: Sequence[E.Expr]) -> Optional[E.Expr]:
    """Rebuild a conjunction; ``None`` for an empty list (no predicate)."""
    if not conjuncts:
        return None
    return E.and_all(list(conjuncts))


def is_literal_true(expr: E.Expr) -> bool:
    return isinstance(expr, E.Lit) and isinstance(expr.value, bool) and expr.value


# ---------------------------------------------------------------------------
# Generic rebuilding
# ---------------------------------------------------------------------------
def rewrite_expr(expr: E.Expr, fn: Callable[[E.Expr], Optional[E.Expr]]) -> E.Expr:
    """Bottom-up rewrite: apply ``fn`` to every node (children first).

    ``fn`` returns a replacement node or ``None`` for "keep".  Untouched
    subtrees are returned as the *same objects*, so ``result is expr`` is a
    reliable "nothing changed" test.
    """
    rebuilt = E.map_children(expr, lambda child: rewrite_expr(child, fn))
    replacement = fn(rebuilt)
    return rebuilt if replacement is None else replacement


# ---------------------------------------------------------------------------
# Column substitution / side handling
# ---------------------------------------------------------------------------
def substitute_columns(expr: E.Expr, mapping: Dict[str, E.Expr]) -> E.Expr:
    """Replace unsided column references by expressions (for pushing a filter
    below the Project or Agg that computes those columns)."""
    def subst(node: E.Expr) -> Optional[E.Expr]:
        if isinstance(node, E.Col) and node.side is None and node.name in mapping:
            return mapping[node.name]
        return None

    return rewrite_expr(expr, subst)


def flip_sides(expr: E.Expr) -> E.Expr:
    """Swap ``left``/``right`` side annotations (for join-input swaps)."""
    def flip(node: E.Expr) -> Optional[E.Expr]:
        if isinstance(node, E.Col) and node.side is not None:
            return E.Col(node.name, "right" if node.side == "left" else "left")
        return None

    return rewrite_expr(expr, flip)


def strip_sides(expr: E.Expr) -> E.Expr:
    """Drop side annotations (for predicates that become single-input keys)."""
    def strip(node: E.Expr) -> Optional[E.Expr]:
        if isinstance(node, E.Col) and node.side is not None:
            return E.Col(node.name)
        return None

    return rewrite_expr(expr, strip)


def classify_columns(expr: E.Expr, left_fields: Sequence[str],
                     right_fields: Sequence[str]) -> Optional[str]:
    """Which join input(s) an expression reads: ``'left'``, ``'right'``,
    ``'both'``, ``'none'`` — or ``None`` when a reference resolves nowhere.

    Unsided references follow the engines' merged-row resolution: the right
    input shadows the left one.
    """
    sides = set()
    for name, side in E.columns_used_with_sides(expr):
        if side == "left":
            resolved = "left" if name in left_fields else None
        elif side == "right":
            resolved = "right" if name in right_fields else None
        elif name in right_fields:
            resolved = "right"
        elif name in left_fields:
            resolved = "left"
        else:
            resolved = None
        if resolved is None:
            return None
        sides.add(resolved)
    if not sides:
        return "none"
    if len(sides) == 2:
        return "both"
    return sides.pop()


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------
def fold_constants(expr: E.Expr) -> E.Expr:
    """Fold every subtree whose operands are all literals.

    Each fold is value-identical to running the original subtree — including
    the ``bool()`` coercion of the logical connectives — so folding is safe
    in *any* expression position.
    """
    return rewrite_expr(expr, fold_node)


def fold_node(node: E.Expr) -> Optional[E.Expr]:
    """``node`` folded, its operands already folded: a literal, a ``Case``
    without its dead arms, or ``None`` to keep ``node`` as it is."""
    if isinstance(node, E.Case):
        return _fold_case(node)
    operands = E.children(node)
    if not operands:
        return None  # a leaf
    values = [operand.value for operand in operands if isinstance(operand, E.Lit)]
    if len(values) < len(operands):
        return None
    if isinstance(node, E.BinOp) and node.op == "/" and values[1] in (0, 0.0):
        return None  # keep the runtime division-by-zero behaviour
    if isinstance(node, E.YearOf) and not isinstance(values[0], int):
        return None  # only the integer date encoding has a year
    names = iter(_OPERAND_NAMES)
    template = E.map_children(node, lambda _: E.Col(next(names)))
    try:
        value = compile_row(template)(dict(zip(_OPERAND_NAMES, values)))
    except _FOLD_ERRORS:
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return E.Lit(value)


def _fold_case(node: E.Case) -> Optional[E.Expr]:
    """Drop literal-false WHEN branches; commit to a leading literal-true one."""
    whens: List[Tuple[E.Expr, E.Expr]] = []
    changed = False
    for cond, value in node.whens:
        if isinstance(cond, E.Lit):
            if not cond.value:
                changed = True  # branch can never be taken
                continue
            if not whens:
                return value  # first reachable branch always taken
            # a literal-true condition makes every later branch dead
            whens.append((cond, value))
            changed = True
            break
        whens.append((cond, value))
    if not changed:
        return None
    if not whens:
        return node.otherwise
    return E.Case(tuple(whens), node.otherwise)


def simplify_predicate(expr: E.Expr) -> E.Expr:
    """Truthiness-preserving simplification for *predicate positions only*.

    ``p AND true -> p`` and friends preserve which rows pass a filter but may
    change the computed value (``true AND 5`` evaluates to ``True``, ``5`` is
    merely truthy), so this must never run on projection or aggregate
    arguments — only on Select predicates, join residuals and HAVING clauses.
    """
    expr = fold_constants(expr)

    def simplify(node: E.Expr) -> Optional[E.Expr]:
        if not isinstance(node, E.BinOp) or node.op not in ("and", "or"):
            return None
        left, right = node.left, node.right
        if node.op == "and":
            if isinstance(left, E.Lit):
                return right if left.value else E.Lit(False)
            if isinstance(right, E.Lit):
                return left if right.value else E.Lit(False)
        else:
            if isinstance(left, E.Lit):
                return E.Lit(True) if left.value else right
            if isinstance(right, E.Lit):
                return E.Lit(True) if right.value else left
        return None

    return rewrite_expr(expr, simplify)
