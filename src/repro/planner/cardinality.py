"""Cardinality estimation over QPlan trees, driven by loaded-data statistics.

The storage layer already keeps per-table and per-column statistics of the
loaded data (:mod:`repro.storage.statistics`) for the worst-case size analysis
of the memory-hoisting transformations.  The planner reuses the same numbers
for *plan* decisions: which side of a hash join to build on, and in which
order a greedy algorithm should join a chain of relations.

Estimates use the textbook System-R style model: equality selects ``1/V``
(``V`` = number of distinct values), ranges get a fixed fraction refined by
min/max bounds when the literal is comparable, and an equi join of sizes
``|L|·|R|`` is divided by the larger key-distinct count.  TPC-H column names
are globally unique, so column statistics can be resolved by name across the
whole catalog without tracking which scan a column came from.
"""
from __future__ import annotations

from typing import Dict, Optional

from ..dsl import expr as E
from ..dsl import qplan as Q

#: default selectivities when no statistics apply
_RANGE_SELECTIVITY = 0.3
_LIKE_SELECTIVITY = 0.1
_DEFAULT_SELECTIVITY = 0.5
_SEMI_SELECTIVITY = 0.5

#: fallback row count for tables the statistics have never seen
_UNKNOWN_TABLE_ROWS = 1000.0


class CardinalityEstimator:
    """Estimates output row counts of plan subtrees against one catalog."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.statistics = getattr(catalog, "statistics", None)
        self._column_stats: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Statistics lookup
    # ------------------------------------------------------------------
    def _columns(self) -> Dict[str, object]:
        """Column statistics indexed by (globally unique) column name.

        Delegates to :meth:`repro.storage.statistics.Statistics.columns_by_name`
        — each column's summaries (min/max, distinct counts, zone maps) are
        computed on their first read; the estimator only caches the name index.
        """
        if self._column_stats is None:
            self._column_stats = (self.statistics.columns_by_name()
                                  if self.statistics is not None else {})
        return self._column_stats

    def distinct_of(self, expr: E.Expr) -> Optional[int]:
        """Distinct-value count of a bare column reference, if known."""
        if isinstance(expr, E.Col):
            stats = self._columns().get(expr.name)
            if stats is not None and stats.num_distinct > 0:
                return stats.num_distinct
        return None

    # ------------------------------------------------------------------
    # Row-count estimation
    # ------------------------------------------------------------------
    def estimate_rows(self, plan: Q.Operator) -> float:
        if isinstance(plan, Q.Scan):
            if self.statistics is not None and self.statistics.has_table(plan.table):
                return float(self.statistics.cardinality(plan.table))
            return _UNKNOWN_TABLE_ROWS
        if isinstance(plan, Q.Select):
            # (also covers PrunedScan: pruning skips rows the predicate would
            # reject anyway, so the selectivity estimate is unchanged)
            child = self.estimate_rows(plan.child)
            return child * self.selectivity(plan.predicate)
        if isinstance(plan, Q.Project):
            return self.estimate_rows(plan.child)
        if isinstance(plan, Q.IndexJoin):
            return self._estimate_pk_join(plan)
        if isinstance(plan, Q.HashJoin):
            return self._estimate_hash_join(plan)
        if isinstance(plan, Q.Agg):
            return self._estimate_agg(plan)
        if isinstance(plan, Q.Sort):
            return self.estimate_rows(plan.child)
        if isinstance(plan, (Q.Limit, Q.TopK)):
            return min(float(plan.count), self.estimate_rows(plan.child))
        return _UNKNOWN_TABLE_ROWS

    def _estimate_hash_join(self, plan: Q.HashJoin) -> float:
        left = self.estimate_rows(plan.left)
        right = self.estimate_rows(plan.right)
        if plan.kind in ("leftsemi", "leftanti"):
            return max(1.0, left * _SEMI_SELECTIVITY)
        distinct = max(self.distinct_of(plan.left_key) or 1,
                       self.distinct_of(plan.right_key) or 1)
        estimate = left * right / distinct
        if plan.residual is not None:
            estimate *= self.selectivity(plan.residual)
        if plan.kind == "leftouter":
            estimate = max(estimate, left)
        return max(1.0, estimate)

    def _estimate_pk_join(self, plan: Q.IndexJoin) -> float:
        """Unique-key joins match each probe row with at most one build row,
        so the inner output is bounded by the probe side — tighter than the
        generic ``|L|·|R| / V``."""
        if plan.kind in ("leftsemi", "leftanti"):
            return max(1.0, self.estimate_rows(plan.left) * _SEMI_SELECTIVITY)
        estimate = self.estimate_rows(plan.right)
        if plan.residual is not None:
            estimate *= self.selectivity(plan.residual)
        return max(1.0, estimate)

    def _estimate_agg(self, plan: Q.Agg) -> float:
        child = self.estimate_rows(plan.child)
        if not plan.group_keys:
            return 1.0
        groups = 1.0
        for _, expr in plan.group_keys:
            groups *= float(self.distinct_of(expr) or max(child, 1.0) ** 0.5)
        return max(1.0, min(groups, child))

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------
    def selectivity(self, predicate: E.Expr) -> float:
        """Fraction of rows a predicate keeps (clamped to [0, 1])."""
        return max(0.0, min(1.0, self._selectivity(predicate)))

    def _selectivity(self, node: E.Expr) -> float:
        if isinstance(node, E.BinOp):
            if node.op == "and":
                return self._selectivity(node.left) * self._selectivity(node.right)
            if node.op == "or":
                left = self._selectivity(node.left)
                right = self._selectivity(node.right)
                return left + right - left * right
            if node.op == "==":
                distinct = self.distinct_of(node.left) or self.distinct_of(node.right)
                return 1.0 / distinct if distinct else _DEFAULT_SELECTIVITY
            if node.op == "!=":
                distinct = self.distinct_of(node.left) or self.distinct_of(node.right)
                return 1.0 - 1.0 / distinct if distinct else _DEFAULT_SELECTIVITY
            if node.op in ("<", "<=", ">", ">="):
                return self._range_selectivity(node)
        if isinstance(node, E.UnaryOp) and node.op == "not":
            return 1.0 - self._selectivity(node.operand)
        if isinstance(node, E.Like):
            return _LIKE_SELECTIVITY
        if isinstance(node, E.InList):
            distinct = self.distinct_of(node.operand)
            if distinct:
                return min(1.0, len(node.values) / distinct)
            return _DEFAULT_SELECTIVITY
        if isinstance(node, E.Lit):
            return 1.0 if node.value else 0.0
        if isinstance(node, E.IsNull):
            return 0.1
        return _DEFAULT_SELECTIVITY

    def _range_selectivity(self, node: E.BinOp) -> float:
        """Interpolate within the [min, max] of the column when comparable."""
        column, literal, op = None, None, node.op
        if isinstance(node.left, E.Col) and isinstance(node.right, E.Lit):
            column, literal = node.left, node.right.value
        elif isinstance(node.right, E.Col) and isinstance(node.left, E.Lit):
            column, literal = node.right, node.left.value
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if column is None:
            return _RANGE_SELECTIVITY
        stats = self._columns().get(column.name)
        if stats is None or stats.min_value is None or stats.max_value is None:
            return _RANGE_SELECTIVITY
        low, high = stats.min_value, stats.max_value
        try:
            width = high - low
            if width <= 0:
                return _RANGE_SELECTIVITY
            fraction = (literal - low) / width
        except TypeError:
            return _RANGE_SELECTIVITY
        if op in (">", ">="):
            fraction = 1.0 - fraction
        return max(0.0, min(1.0, fraction))
