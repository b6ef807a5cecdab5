"""Shortcut fusion for the QMonad front end (Section 5.1 of the paper).

Two pieces live here:

* :class:`MonadFusionRules` — the algebraic rewrite rules of the Monad
  Calculus applied *within* QMonad (Figure 5's ``R.map(f).map(g) ->
  R.map(f o g)`` together with filter fusion).  They are an optimization: the
  source and target language are both QMonad.
* :class:`QMonadShortcutFusionLowering` — the lowering from QMonad into the
  imperative ScaLite levels.  Every operator is expressed in the
  producer/consumer (build/foreach) encoding; inlining that encoding is what
  turns the chain of collection operators into a single pipelined loop nest.
  As the paper notes, the result coincides with the push engine used for
  QPlan, so the lowering reuses the same machinery
  (:class:`repro.transforms.pipelining._PushCompiler`).
"""
from __future__ import annotations

from typing import Dict

from ..dsl import expr as E
from ..dsl import qmonad as M
from ..dsl import qplan as Q
from ..stack.context import CompilationContext
from ..stack.language import Language, QMONAD
from ..stack.transformation import Lowering, Optimization
from .pipelining import _PushCompiler


class MonadFusionRules(Optimization):
    """Algebraic fusion rules applied inside QMonad (map/map and filter/filter)."""

    #: children fuse before their parent, so one run collapses whole chains
    #: and fusing maps never makes two filters adjacent (nor the reverse)
    enables = ()

    name = "monad-fusion[QMonad]"

    def __init__(self) -> None:
        super().__init__(QMONAD)

    def run(self, query: M.QueryMonad, context: CompilationContext) -> M.QueryMonad:
        return _fuse(query)


def _fuse(query: M.QueryMonad) -> M.QueryMonad:
    children = tuple(_fuse(child) for child in query.children)
    if any(new is not old for new, old in zip(children, query.children)):
        query = M.QueryMonad(query.op, query.args, children)

    # filter(p2) . filter(p1)  ->  filter(p1 and p2): one traversal, one test.
    if query.op == "filter" and children and children[0].op == "filter":
        inner = children[0]
        combined = E.BinOp("and", inner.args["predicate"], query.args["predicate"])
        return M.QueryMonad("filter", {"predicate": combined}, inner.children)

    # map(g) . map(f)  ->  map(g o f): Figure 5 of the paper.
    if query.op == "map" and children and children[0].op == "map":
        inner = children[0]
        inner_by_name: Dict[str, E.Expr] = dict(inner.args["projections"])
        composed = tuple((name, _substitute(expr, inner_by_name))
                         for name, expr in query.args["projections"])
        return M.QueryMonad("map", {"projections": composed}, inner.children)

    return query


def _substitute(expression: E.Expr, bindings: Dict[str, E.Expr]) -> E.Expr:
    """Replace column references by the expressions of an inner projection."""
    if isinstance(expression, E.Col) and expression.side is None:
        return bindings.get(expression.name, expression)
    if isinstance(expression, E.Lit):
        return expression
    if isinstance(expression, E.BinOp):
        return E.BinOp(expression.op, _substitute(expression.left, bindings),
                       _substitute(expression.right, bindings))
    if isinstance(expression, E.UnaryOp):
        return E.UnaryOp(expression.op, _substitute(expression.operand, bindings))
    if isinstance(expression, E.Like):
        return E.Like(_substitute(expression.operand, bindings), expression.pattern)
    if isinstance(expression, E.InList):
        return E.InList(_substitute(expression.operand, bindings), expression.values)
    if isinstance(expression, E.Case):
        return E.Case(tuple((_substitute(c, bindings), _substitute(v, bindings))
                            for c, v in expression.whens),
                      _substitute(expression.otherwise, bindings))
    if isinstance(expression, E.Substr):
        return E.Substr(_substitute(expression.operand, bindings), expression.start,
                        expression.length)
    if isinstance(expression, E.YearOf):
        return E.YearOf(_substitute(expression.operand, bindings))
    if isinstance(expression, E.IsNull):
        return E.IsNull(_substitute(expression.operand, bindings))
    return expression


class QMonadShortcutFusionLowering(Lowering):
    """Lower a QMonad chain to imperative code through the build/foreach encoding."""

    def __init__(self, target: Language, name: str = "qmonad-shortcut-fusion",
                 partition_base_builds: bool = True) -> None:
        self.name = name
        self.partition_base_builds = partition_base_builds
        super().__init__(QMONAD, target)

    def run(self, query: M.QueryMonad, context: CompilationContext):
        if context.catalog is None:
            raise M.QMonadError("shortcut fusion requires a catalog in the context")
        plan = M.to_qplan(query)
        Q.validate(plan, context.catalog)
        compiler = _PushCompiler(context, self.target, self.partition_base_builds)
        return compiler.compile(plan)
