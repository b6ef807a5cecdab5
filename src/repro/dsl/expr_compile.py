"""Expression-to-closure compilation: the interpreted fast path.

Walking the :class:`~repro.dsl.expr.Expr` tree once per row is the per-tuple
interpretation overhead the paper sets out to eliminate.  This module compiles
an expression tree **once** into a single Python function (via ``compile`` /
``exec`` of generated source, the same mechanism the DSL stack uses for whole
queries) and the engines then call that closure per row or per column batch.
The closure *is* the semantics of the scalar language: constant folding
(:func:`repro.planner.exprs.fold_node`) runs :func:`compile_row`'s, and the
tests hold every form to a tree-walking reference evaluator written apart.

Five forms are produced, all computing the same values:

* :func:`compile_row` — ``fn(row) -> value`` over a boxed row dictionary
  (used by the Volcano select/project/agg/sort hot paths),
* :func:`compile_pair` — ``fn(left_row, right_row) -> value`` for join
  residuals with sided column references,
* :func:`compile_columnar` — ``fn(columns, sel) -> list`` evaluating the
  expression at every selected index of a column batch,
* :func:`compile_columnar_predicate` — ``fn(columns, sel) -> selection`` that
  filters a selection vector in one pass, and
* :func:`compile_columnar_pair` — a two-stage binder for vectorized join
  residuals: ``make(left_cols, right_cols) -> fn(j, i) -> value``.

Compiled closures are cached by a structural fingerprint of the expression
(:func:`expr_fingerprint`), so repeated executions of the same plan — and
different plans sharing subexpressions — never recompile.
"""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from .. import dates
from . import expr as E


class ExprCompileError(Exception):
    pass


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------
def expr_fingerprint(expr: E.Expr) -> str:
    """A stable structural fingerprint of an expression tree.

    Two expressions share a fingerprint iff they are structurally identical
    (same nodes, operators, column names/sides and literal values), which is
    exactly the condition under which they compile to the same closure.
    """
    if isinstance(expr, E.Lit):
        return f"L{type(expr.value).__name__}:{expr.value!r}"
    if isinstance(expr, E.Col):
        return f"C{expr.side or ''}:{expr.name}"
    if isinstance(expr, E.BinOp):
        return f"B{expr.op}({expr_fingerprint(expr.left)},{expr_fingerprint(expr.right)})"
    if isinstance(expr, E.UnaryOp):
        return f"U{expr.op}({expr_fingerprint(expr.operand)})"
    if isinstance(expr, E.Like):
        return f"K({expr_fingerprint(expr.operand)},{expr.pattern!r})"
    if isinstance(expr, E.InList):
        return f"I({expr_fingerprint(expr.operand)},{expr.values!r})"
    if isinstance(expr, E.Case):
        whens = ",".join(f"{expr_fingerprint(c)}>{expr_fingerprint(v)}"
                         for c, v in expr.whens)
        return f"W({whens};{expr_fingerprint(expr.otherwise)})"
    if isinstance(expr, E.Substr):
        return f"S({expr_fingerprint(expr.operand)},{expr.start},{expr.length})"
    if isinstance(expr, E.YearOf):
        return f"Y({expr_fingerprint(expr.operand)})"
    if isinstance(expr, E.IsNull):
        return f"N({expr_fingerprint(expr.operand)})"
    raise ExprCompileError(f"cannot fingerprint expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Source emission
# ---------------------------------------------------------------------------
def _is_boolean(node: E.Expr) -> bool:
    """Whether ``node`` always produces a Python ``bool``."""
    if isinstance(node, E.Lit):
        return isinstance(node.value, bool)
    if isinstance(node, E.BinOp):
        return E.BINARY[node.op].boolean
    if isinstance(node, E.UnaryOp):
        return E.UNARY[node.op].boolean
    return isinstance(node, (E.Like, E.InList, E.IsNull))


class _Emitter:
    """Turns an expression tree into a Python source fragment plus an
    environment of bound constants (LIKE matchers, IN sets, helpers)."""

    def __init__(self) -> None:
        self.env: Dict[str, Any] = {"_year": dates.year_of}
        self.counter = 0

    def bind(self, prefix: str, value: Any) -> str:
        name = f"_{prefix}{self.counter}"
        self.counter += 1
        self.env[name] = value
        return name

    def emit(self, node: E.Expr, ref: Callable[[E.Col], str]) -> str:
        if isinstance(node, E.Lit):
            value = node.value
            if value is None or isinstance(value, (bool, int, float, str)):
                return E.literal_source(value)
            return self.bind("k", value)
        if isinstance(node, E.Col):
            return ref(node)
        if isinstance(node, E.BinOp):
            left = self.emit(node.left, ref)
            right = self.emit(node.right, ref)
            if node.op in ("and", "or"):
                # a connective yields bool(l) and bool(r), as in generated
                # code: coerce the operands that may not be bools
                if not _is_boolean(node.left):
                    left = f"bool({left})"
                if not _is_boolean(node.right):
                    right = f"bool({right})"
            return f"({left} {node.op} {right})"
        if isinstance(node, E.UnaryOp):
            operand = self.emit(node.operand, ref)
            return f"(not {operand})" if node.op == "not" else f"(-{operand})"
        if isinstance(node, E.Like):
            matcher = self.bind("like", node.matches)
            return f"{matcher}({self.emit(node.operand, ref)})"
        if isinstance(node, E.InList):
            values: Any = node.values
            try:
                values = frozenset(values)
            except TypeError:
                pass
            return f"({self.emit(node.operand, ref)} in {self.bind('in', values)})"
        if isinstance(node, E.Case):
            out = self.emit(node.otherwise, ref)
            for cond, value in reversed(node.whens):
                out = f"({self.emit(value, ref)} if {self.emit(cond, ref)} else {out})"
            return out
        if isinstance(node, E.Substr):
            start = node.start - 1
            return f"({self.emit(node.operand, ref)}[{start}:{start + node.length}])"
        if isinstance(node, E.YearOf):
            return f"_year({self.emit(node.operand, ref)})"
        if isinstance(node, E.IsNull):
            if isinstance(node.operand, E.Lit):
                # the answer itself: ``0 is None`` is a SyntaxWarning
                return E.literal_source(node.operand.value is None)
            return f"({self.emit(node.operand, ref)} is None)"
        raise ExprCompileError(f"cannot compile expression node {type(node).__name__}")


def _build(source: str, env: Dict[str, Any], fn_name: str = "_fn") -> Callable:
    namespace = dict(env)
    code = compile(source, "<expr-compile>", "exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    return namespace[fn_name]


# ---------------------------------------------------------------------------
# Closure cache
# ---------------------------------------------------------------------------
_CACHE: Dict[Tuple, Callable] = {}
_CACHE_LIMIT = 4096


def _cached(key: Tuple, builder: Callable[[], Callable]) -> Callable:
    fn = _CACHE.get(key)
    if fn is None:
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.clear()
        fn = _CACHE[key] = builder()
    return fn


def clear_cache() -> None:
    """Drop every cached closure (mainly for tests)."""
    _CACHE.clear()


# ---------------------------------------------------------------------------
# Row-at-a-time forms
# ---------------------------------------------------------------------------
def compile_row(expr: E.Expr) -> Callable[[Dict[str, Any]], Any]:
    """Compile to ``fn(row) -> value``: the value of ``expr`` on ``row``."""
    def build() -> Callable:
        emitter = _Emitter()
        body = emitter.emit(expr, lambda c: f"row[{c.name!r}]")
        source = f"def _fn(row):\n    return {body}\n"
        return _build(source, emitter.env)

    return _cached(("row", expr_fingerprint(expr)), build)


def compile_pair(expr: E.Expr) -> Callable[[Dict[str, Any], Dict[str, Any]], Any]:
    """Compile to ``fn(left_row, right_row) -> value`` for join predicates.

    Sided column references resolve against the respective row; unsided ones
    resolve against the merged row (right shadows left, as in
    ``{**left, **right}``).
    """
    def ref(c: E.Col) -> str:
        if c.side == "left":
            return f"left[{c.name!r}]"
        if c.side == "right":
            return f"right[{c.name!r}]"
        return f"(right[{c.name!r}] if {c.name!r} in right else left[{c.name!r}])"

    def build() -> Callable:
        emitter = _Emitter()
        body = emitter.emit(expr, ref)
        source = f"def _fn(left, right):\n    return {body}\n"
        return _build(source, emitter.env)

    return _cached(("pair", expr_fingerprint(expr)), build)


# ---------------------------------------------------------------------------
# Columnar forms
# ---------------------------------------------------------------------------
def _columnar_prologue(expr: E.Expr) -> Tuple[Callable[[E.Col], str], List[str], Dict[str, str]]:
    """Assign one local per referenced column; return the ref function."""
    locals_for: Dict[str, str] = {}
    assigns: List[str] = []
    for name in E.columns_used(expr):
        local = f"_col{len(locals_for)}"
        locals_for[name] = local
        assigns.append(f"{local} = cols[{name!r}]")

    def ref(c: E.Col) -> str:
        return f"{locals_for[c.name]}[i]"

    return ref, assigns, locals_for


def compile_columnar(expr: E.Expr) -> Callable[[Dict[str, Sequence], Sequence[int]], List[Any]]:
    """Compile to ``fn(columns, sel) -> list`` of values at selected indices."""
    def build() -> Callable:
        emitter = _Emitter()
        ref, assigns, _ = _columnar_prologue(expr)
        body = emitter.emit(expr, ref)
        prologue = "\n    ".join(assigns) if assigns else "pass"
        source = (f"def _fn(cols, sel):\n"
                  f"    {prologue}\n"
                  f"    return [{body} for i in sel]\n")
        return _build(source, emitter.env)

    return _cached(("columnar", expr_fingerprint(expr)), build)


def compile_columnar_predicate(
        expr: E.Expr) -> Callable[[Dict[str, Sequence], Sequence[int]], List[int]]:
    """Compile to ``fn(columns, sel) -> selection`` keeping passing indices."""
    def build() -> Callable:
        emitter = _Emitter()
        ref, assigns, _ = _columnar_prologue(expr)
        body = emitter.emit(expr, ref)
        prologue = "\n    ".join(assigns) if assigns else "pass"
        source = (f"def _fn(cols, sel):\n"
                  f"    {prologue}\n"
                  f"    return [i for i in sel if {body}]\n")
        return _build(source, emitter.env)

    return _cached(("columnar-pred", expr_fingerprint(expr)), build)


def compile_columnar_pair(expr: E.Expr, left_fields: Sequence[str],
                          right_fields: Sequence[str]) -> Callable:
    """Compile a join residual for the vectorized engine.

    Returns ``make(left_cols, right_cols)`` which binds the column lists once
    per join and yields ``fn(j, i) -> value`` over a (left row ``j``,
    right row ``i``) candidate pair.  Unsided columns resolve like the merged
    row dictionary of the interpreter: right shadows left.
    """
    left_fields = tuple(left_fields)
    right_fields = tuple(right_fields)

    def build() -> Callable:
        emitter = _Emitter()
        locals_for: Dict[Tuple[str, str], str] = {}
        assigns: List[str] = []

        def side_of(c: E.Col) -> str:
            if c.side == "left":
                return "left"
            if c.side == "right":
                return "right"
            return "right" if c.name in right_fields else "left"

        def ref(c: E.Col) -> str:
            side = side_of(c)
            key = (side, c.name)
            local = locals_for.get(key)
            if local is None:
                local = f"_{side[0]}{len(locals_for)}"
                locals_for[key] = local
                source_dict = "lcols" if side == "left" else "rcols"
                assigns.append(f"{local} = {source_dict}[{c.name!r}]")
            index = "j" if side == "left" else "i"
            return f"{local}[{index}]"

        body = emitter.emit(expr, ref)
        prologue = "\n    ".join(assigns) if assigns else "pass"
        source = (f"def _fn(lcols, rcols):\n"
                  f"    {prologue}\n"
                  f"    def _pred(j, i):\n"
                  f"        return {body}\n"
                  f"    return _pred\n")
        return _build(source, emitter.env)

    return _cached(("columnar-pair", expr_fingerprint(expr), left_fields, right_fields),
                   build)
