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
from ..planner.exprs import substitute_columns
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
        composed = tuple((name, substitute_columns(expr, inner_by_name))
                         for name, expr in query.args["projections"])
        return M.QueryMonad("map", {"projections": composed}, inner.children)

    return query


class QMonadShortcutFusionLowering(Lowering):
    """Lower a QMonad chain to imperative code through the build/foreach encoding."""

    def __init__(self, target: Language, name: str = "qmonad-shortcut-fusion") -> None:
        self.name = name
        super().__init__(QMONAD, target)

    def run(self, query: M.QueryMonad, context: CompilationContext):
        if context.catalog is None:
            raise M.QMonadError("shortcut fusion requires a catalog in the context")
        plan = M.to_qplan(query)
        Q.validate(plan, context.catalog)
        compiler = _PushCompiler(context, self.target)
        return compiler.compile(plan)
