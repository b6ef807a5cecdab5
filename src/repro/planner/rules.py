"""The logical rewrite rules of the plan optimizer.

Every rule preserves the query result *exactly* — same rows, same values
(including float accumulation order into aggregates) and same output order on
every engine — unless its docstring says otherwise.  Order preservation is
what allows the all-22-query parity suite to compare optimized against raw
plans with plain ``==`` on the result lists:

* **ConstantFolding** rewrites expressions only, value-identically.
* **PredicatePushdown** moves conjuncts to positions where the engines filter
  the same tuples earlier, in ways proven not to change the surviving-row
  order (see the per-case notes in the class docstring).
* **TopKFusion** fuses ``Limit`` over ``Sort`` into the bounded-heap ``TopK``
  operator; heap selection is stable with input-order tie-breaking, so the
  fused plan returns exactly the rows (and order) of the sort-then-limit.
* **BuildSideSwap** (cost-based) *does* change intermediate row order: it
  preserves the result multiset but may perturb float aggregate sums in the
  last bits and tie order under top-level sorts.  It runs by default under
  the planner's order contract (see :mod:`repro.planner.ordering`); the
  ``join_strategy`` option turns it off for exact-order comparisons.
"""
from __future__ import annotations

from typing import List, Optional

from ..dsl import expr as E
from ..dsl import qplan as Q
from ..dsl.expr import split_conjuncts
from .access_rules import index_eligible_build
from .cardinality import CardinalityEstimator
from .exprs import (classify_columns, conjoin, flip_sides, fold_constants,
                    is_literal_true, simplify_predicate, strip_sides,
                    substitute_columns)
from .rewrite import PlanRule, PlannerContext


class ConstantFolding(PlanRule):
    """Fold literal subexpressions in every operator of the plan.

    Each fold is :func:`~repro.planner.exprs.fold_node`, the rule the IR-level
    folding (:mod:`repro.transforms.folding`) applies to an op over literals
    too: folds are value-identical to runtime evaluation, and a fold that
    would raise (division by a constant zero, overflow, type mismatch) is
    skipped rather than performed.  Predicate positions (Select,
    residuals, HAVING) additionally get truthiness-preserving boolean
    simplification; a predicate folded to literal ``True`` removes the Select
    (or residual) entirely.
    """

    name = "constant-folding"

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        if isinstance(node, Q.Select):
            predicate = simplify_predicate(node.predicate)
            if is_literal_true(predicate):
                return node.child
            if predicate is not node.predicate:
                return Q.Select(node.child, predicate)
            return None
        if isinstance(node, Q.Project):
            projections = tuple((name, fold_constants(expr))
                                for name, expr in node.projections)
            if all(new is old for (_, new), (_, old)
                   in zip(projections, node.projections)):
                return None
            return Q.Project(node.child, projections)
        if isinstance(node, Q.HashJoin):
            left_key = fold_constants(node.left_key)
            right_key = fold_constants(node.right_key)
            residual = node.residual
            if residual is not None:
                residual = simplify_predicate(residual)
                if is_literal_true(residual):
                    residual = None
            if (left_key is node.left_key and right_key is node.right_key
                    and residual is node.residual):
                return None
            return Q.HashJoin(node.left, node.right, left_key, right_key,
                              node.kind, residual)
        if isinstance(node, Q.Agg):
            group_keys = tuple((name, fold_constants(expr))
                               for name, expr in node.group_keys)
            aggregates = tuple(
                spec if spec.expr is None
                else self._fold_agg(spec) for spec in node.aggregates)
            having = node.having
            if having is not None:
                having = simplify_predicate(having)
                if is_literal_true(having):
                    having = None
            unchanged = (having is node.having
                         and all(new is old for (_, new), (_, old)
                                 in zip(group_keys, node.group_keys))
                         and all(new is old for new, old
                                 in zip(aggregates, node.aggregates)))
            if unchanged:
                return None
            return Q.Agg(node.child, group_keys, aggregates, having)
        if isinstance(node, Q.Sort):
            keys = tuple((fold_constants(expr), order) for expr, order in node.keys)
            if all(new is old for (new, _), (old, _) in zip(keys, node.keys)):
                return None
            return Q.Sort(node.child, keys)
        return None

    @staticmethod
    def _fold_agg(spec: Q.AggSpec) -> Q.AggSpec:
        folded = fold_constants(spec.expr)
        return spec if folded is spec.expr else Q.AggSpec(spec.kind, folded, spec.name)


class PredicatePushdown(PlanRule):
    """Push filter conjuncts towards the scans (order-preservingly).

    The predicate of a ``Select`` is split into conjuncts and each conjunct
    is moved as far down as a case below allows; leftovers stay in a Select
    above.  Order-safety per case:

    * **Select/Select**: merged into one conjunction, inner predicate first —
      the same tuples survive in the same order.
    * **Select/Project**: column references are substituted by the projected
      expressions and the filter runs below — projection then filter equals
      filter (on the same values) then projection.
    * **Select/HashJoin (inner only)**: a one-sided conjunct filters that
      input before the join.  Inner-join emission is driven by the probe
      (right) rows with build matches in bucket order; filtering either input
      preserves the relative order of the surviving pairs.  A two-sided
      conjunct becomes part of the join's residual, which the engines
      evaluate per candidate pair with the same merged-row column resolution.
      Semi/anti/outer hash joins are skipped: their left-row emission order
      follows bucket (key-first-seen) order, which an upstream filter can
      permute.  A theta join is a hash join on a constant key, so a filter
      above a semi, anti or outer theta join stays there too.
    * **Select/Agg**: a conjunct over group-key *names* filters whole groups,
      so it can run below the aggregation with the key names substituted by
      their expressions; surviving groups keep their contents, encounter
      order and float accumulation order.
    * **Select/Sort**: filtering commutes with a stable sort.
    * **Select/Limit**: never pushed (it would change which rows are kept).
    """

    name = "predicate-pushdown"

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        if not isinstance(node, Q.Select):
            return None
        child = node.child
        if isinstance(child, Q.Select):
            merged = conjoin(split_conjuncts(child.predicate)
                             + split_conjuncts(node.predicate))
            return Q.Select(child.child, merged)
        if isinstance(child, Q.Project):
            mapping = {name: expr for name, expr in child.projections}
            pushed = substitute_columns(node.predicate, mapping)
            return Q.Project(Q.Select(child.child, pushed), child.projections)
        if isinstance(child, Q.HashJoin):
            return self._push_into_hash_join(node, child, context)
        if isinstance(child, Q.Agg):
            return self._push_into_agg(node, child)
        if isinstance(child, Q.Sort):
            return Q.Sort(Q.Select(child.child, node.predicate), child.keys)
        return None

    def _push_into_hash_join(self, node: Q.Select, join: Q.HashJoin,
                             context: PlannerContext) -> Optional[Q.Operator]:
        if join.kind != "inner":
            return None
        left_fields = context.fields_of(join.left)
        right_fields = context.fields_of(join.right)
        to_left: List[E.Expr] = []
        to_right: List[E.Expr] = []
        to_residual: List[E.Expr] = []
        keep: List[E.Expr] = []
        for conjunct in split_conjuncts(node.predicate):
            side = classify_columns(conjunct, left_fields, right_fields)
            if side == "left":
                to_left.append(strip_sides(conjunct))
            elif side == "right":
                to_right.append(strip_sides(conjunct))
            elif side == "both":
                to_residual.append(conjunct)
            else:
                keep.append(conjunct)
        if not (to_left or to_right or to_residual):
            return None
        new_left = Q.Select(join.left, conjoin(to_left)) if to_left else join.left
        new_right = Q.Select(join.right, conjoin(to_right)) if to_right else join.right
        residual = join.residual
        if to_residual:
            existing = split_conjuncts(residual) if residual is not None else []
            residual = conjoin(existing + to_residual)
        rebuilt = Q.HashJoin(new_left, new_right, join.left_key, join.right_key,
                             join.kind, residual)
        leftover = conjoin(keep)
        return rebuilt if leftover is None else Q.Select(rebuilt, leftover)

    def _push_into_agg(self, node: Q.Select, agg: Q.Agg) -> Optional[Q.Operator]:
        key_names = {name for name, _ in agg.group_keys}
        mapping = {name: expr for name, expr in agg.group_keys}
        pushed: List[E.Expr] = []
        keep: List[E.Expr] = []
        for conjunct in split_conjuncts(node.predicate):
            columns = E.columns_used_with_sides(conjunct)
            if columns and all(side is None and name in key_names
                               for name, side in columns):
                pushed.append(substitute_columns(conjunct, mapping))
            else:
                keep.append(conjunct)
        if not pushed:
            return None
        new_child = Q.Select(agg.child, conjoin(pushed))
        rebuilt = Q.Agg(new_child, agg.group_keys, agg.aggregates, agg.having)
        leftover = conjoin(keep)
        return rebuilt if leftover is None else Q.Select(rebuilt, leftover)


class TopKFusion(PlanRule):
    """Fuse ``Limit(Sort(x))`` into the bounded-heap ``TopK`` operator.

    The engines execute ``TopK`` with :func:`heapq.nsmallest` over composite
    encoded keys (:mod:`repro.engine.sortkeys`): O(n log k) instead of a full
    O(n log n) sort, and the sorted prefix is the only thing ever gathered.
    Heap selection breaks ties by input position, exactly like the engines'
    stable multi-pass sorts, so the rewrite is value- **and order-**
    preserving and belongs to the default (exact-parity) rule set.

    ``Limit`` over an existing ``TopK`` tightens (or drops into) the fused
    operator, so stacked limits converge to a single bounded heap.
    """

    name = "topk-fusion"

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        if not isinstance(node, Q.Limit):
            return None
        child = node.child
        if isinstance(child, Q.Sort):
            return Q.TopK(child.child, child.keys, max(0, node.count))
        if isinstance(child, Q.TopK):
            if node.count >= child.count:
                return child
            return Q.TopK(child.child, child.keys, max(0, node.count))
        if isinstance(child, Q.Limit):
            return Q.Limit(child.child, max(0, min(node.count, child.count)))
        return None


class BuildSideSwap(PlanRule):
    """Cost-based build-side selection for inner hash joins.

    Hash joins build on their left input; when statistics say the left input
    is substantially larger than the right one, swapping the inputs (and the
    keys, and the residual's side annotations) builds the smaller hash table
    and streams the larger input through the probe.  The result *multiset*
    is identical but row order changes from probe-major over the old right
    to probe-major over the old left — the relaxation the order contract
    permits.  The rule runs by default; ``PlannerOptions.exact_order()``
    (``join_strategy=False``) disables it.
    """

    name = "build-side-swap"

    #: only swap when the build side is at least this much bigger than the
    #: probe side — hysteresis that also guarantees the rule cannot fire
    #: again on its own output.
    threshold = 1.5

    def __init__(self, estimator: CardinalityEstimator) -> None:
        self.estimator = estimator

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        if not isinstance(node, Q.HashJoin) or node.kind != "inner":
            return None
        if isinstance(node, Q.IndexJoin):
            return None
        # An index-eligible build side costs nothing to build (the access
        # layer holds its key index across queries), so size-based swapping
        # would only destroy the cheaper plan the access-path rules select.
        options = context.options
        if (options is None or getattr(options, "access_paths", True)) and \
                index_eligible_build(node, context.catalog) is not None:
            return None
        build = self.estimator.estimate_rows(node.left)
        probe = self.estimator.estimate_rows(node.right)
        if build <= probe * self.threshold:
            return None
        residual = flip_sides(node.residual) if node.residual is not None else None
        return Q.HashJoin(node.right, node.left, node.right_key, node.left_key,
                          node.kind, residual)
