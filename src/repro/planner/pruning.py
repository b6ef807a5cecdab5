"""Field pruning: narrow scans (and optionally projections/aggregates) to
the columns a plan actually uses.

This is the plan-level unused-field removal of the paper's Appendix C,
factored out of :mod:`repro.transforms.field_removal` so that both clients
share one implementation:

* the DSL stack's ``UnusedFieldRemoval`` optimization calls it in scan-only
  mode (its historical behaviour; listed by the stacks of three levels and
  up, except the TPC-H compliant one), and
* the logical planner calls it with projection and aggregate pruning enabled
  as the final pass of :meth:`repro.planner.planner.Planner.optimize`, and
* the push-engine lowering asks :func:`consumed_fields` which fields of each
  operator's rows its consumers read, to store no more at a hash build.

Pruning never changes which rows flow through the plan — only which columns
are materialized — so it is trivially order- and value-preserving.  Nodes
that need no change are returned as the *same objects*, which keeps plan
fingerprints stable when there is nothing to prune.

Pruning is additionally **sharing-preserving**: two occurrences of a repeated
subtree (:func:`repro.dsl.qplan.shared_subplan_fingerprints` — what both the
vectorized engine and the compiled stacks execute once per query) usually need
different column sets, and pruning each occurrence to its own needs would
make the subtrees structurally different, silently destroying the sharing.
A first recording pass therefore unions the needs of all occurrences of each
shared fingerprint, and the pruning pass applies that union at every
occurrence — the subtrees stay identical, carrying the union of their
consumers' columns.
"""
from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Sequence, Set

from ..dsl import expr as E
from ..dsl import qplan as Q


def prune_plan(plan: Q.Operator, catalog,
               required: Optional[Sequence[str]] = None, *,
               prune_projections: bool = False,
               prune_aggregates: bool = False) -> Q.Operator:
    """Prune columns not in ``required`` (default: the plan's own output).

    The top-level output columns are always preserved, so the pruned plan
    returns rows with exactly the same keys as the original.
    """
    memo: Dict[int, List[str]] = {}
    if required is None:
        required = Q.output_fields(plan, catalog, memo)
    shared = Q.shared_subplan_fingerprints(plan)
    shared_needs: Optional[Dict[str, Set[str]]] = None
    if shared:
        # Recording pass: the union of every occurrence's needs per shared
        # fingerprint.  The needed-set computation distributes over unions
        # (each operator contributes column sets independently of the rest of
        # `needed`), so one pass records exactly what the union-pruned parent
        # occurrences will ask of their children.
        recorder = _Pruner(catalog, prune_projections, prune_aggregates, memo,
                           shared_ids=shared, recording={})
        recorder.prune(plan, set(required))
        shared_needs = recorder.recording
    pruner = _Pruner(catalog, prune_projections, prune_aggregates, memo,
                     shared_ids=shared, shared_needs=shared_needs)
    return pruner.prune(plan, set(required))


def consumed_fields(plan: Q.Operator, catalog,
                    whole_rows: AbstractSet[int]) -> Dict[int, Set[str]]:
    """``id(node) ->`` the fields of ``node``'s rows that its consumers read,
    by the rules pruning narrows a plan with — except that the consumer of
    a node whose id is in ``whole_rows`` reads its whole row (it stores the
    rows as they are), and so does the plan's result."""
    memo: Dict[int, List[str]] = {}
    recorder = _Pruner(catalog, False, False, memo, consumed={}, whole_rows=whole_rows)
    recorder.prune(plan, set(recorder.fields_of(plan)))
    return recorder.consumed


class _Pruner:
    def __init__(self, catalog, prune_projections: bool, prune_aggregates: bool,
                 memo: Dict[int, List[str]],
                 shared_ids: Optional[Dict[int, str]] = None,
                 recording: Optional[Dict[str, Set[str]]] = None,
                 shared_needs: Optional[Dict[str, Set[str]]] = None,
                 consumed: Optional[Dict[int, Set[str]]] = None,
                 whole_rows: AbstractSet[int] = frozenset()) -> None:
        self.catalog = catalog
        self.prune_projections = prune_projections
        self.prune_aggregates = prune_aggregates
        self.memo = memo
        self.shared_ids = shared_ids or {}
        self.recording = recording
        self.shared_needs = shared_needs
        #: ``id(node) ->`` the union of the needs it was pruned with
        self.consumed = consumed
        self.whole_rows = whole_rows

    def fields_of(self, node: Q.Operator) -> List[str]:
        return Q.output_fields(node, self.catalog, self.memo)

    def prune(self, node: Q.Operator, needed: Set[str]) -> Q.Operator:
        if self.consumed is not None:
            if id(node) in self.whole_rows:
                needed = set(self.fields_of(node))
            self.consumed.setdefault(id(node), set()).update(needed)
        key = self.shared_ids.get(id(node))
        if key is not None:
            if self.recording is not None:
                self.recording[key] = self.recording.get(key, set()) | needed
            elif self.shared_needs is not None:
                needed = self.shared_needs.get(key, needed)
        return self._prune(node, needed)

    def _prune(self, node: Q.Operator, needed: Set[str]) -> Q.Operator:
        if isinstance(node, Q.Scan):
            return self._prune_scan(node, needed)
        if isinstance(node, Q.Select):
            child = self.prune(node.child, needed | _expr_columns(node.predicate))
            # with_children keeps the node's exact type: a PrunedScan must
            # stay a PrunedScan (zone filters only reference predicate
            # columns, which are all in `needed` here).
            return node if child is node.child else node.with_children([child])
        if isinstance(node, Q.Project):
            return self._prune_project(node, needed)
        if isinstance(node, Q.HashJoin):
            return self._prune_join(node, needed)
        if isinstance(node, Q.Agg):
            return self._prune_agg(node, needed)
        if isinstance(node, (Q.Sort, Q.TopK)):
            child_needed = set(needed)
            for expr, _ in node.keys:
                child_needed |= _expr_columns(expr)
            child = self.prune(node.child, child_needed)
            return node if child is node.child else node.with_children([child])
        if isinstance(node, Q.Limit):
            child = self.prune(node.child, needed)
            return node if child is node.child else Q.Limit(child, node.count)
        raise Q.PlanError(f"unknown operator {type(node).__name__}")

    def _prune_scan(self, node: Q.Scan, needed: Set[str]) -> Q.Scan:
        table_columns = self.catalog.schema.table(node.table).column_names()
        current = list(node.fields) if node.fields is not None else table_columns
        kept = [name for name in current if name in needed]
        if not kept:
            # keep at least one column so the scan still drives its loop
            kept = [current[0]]
        if kept == current and node.fields is not None:
            return node
        if node.fields is None and len(kept) == len(table_columns):
            return node
        return Q.Scan(node.table, tuple(kept))

    def _prune_project(self, node: Q.Project, needed: Set[str]) -> Q.Project:
        projections = node.projections
        if self.prune_projections:
            kept = tuple((name, expr) for name, expr in projections if name in needed)
            if not kept:
                kept = projections[:1]  # a projection must keep >= 1 column
            if len(kept) != len(projections):
                projections = kept
        child_needed: Set[str] = set()
        for _, expr in projections:
            child_needed |= _expr_columns(expr)
        child = self.prune(node.child, child_needed)
        if child is node.child and projections is node.projections:
            return node
        return Q.Project(child, projections)

    def _prune_join(self, node: Q.HashJoin, needed: Set[str]) -> Q.Operator:
        left_fields = set(self.fields_of(node.left))
        right_fields = set(self.fields_of(node.right))
        # residual columns may resolve against either side; requiring them
        # on both only ever keeps more than strictly necessary
        extra_left = _expr_columns(node.left_key) | _expr_columns(node.residual)
        extra_right = _expr_columns(node.right_key) | _expr_columns(node.residual)
        left = self.prune(node.left, (needed | extra_left) & left_fields)
        right = self.prune(node.right, (needed | extra_right) & right_fields)
        if left is node.left and right is node.right:
            return node
        return node.with_children([left, right])

    def _prune_agg(self, node: Q.Agg, needed: Set[str]) -> Q.Agg:
        aggregates = node.aggregates
        if self.prune_aggregates:
            wanted = needed | _expr_columns(node.having)
            kept = tuple(spec for spec in aggregates if spec.name in wanted)
            if not kept and aggregates:
                kept = aggregates[:1]  # not every lowering handles a bare group-by
            if len(kept) != len(aggregates):
                aggregates = kept
        child_needed: Set[str] = set()
        for _, expr in node.group_keys:
            child_needed |= _expr_columns(expr)
        for spec in aggregates:
            child_needed |= _expr_columns(spec.expr)
        child = self.prune(node.child, child_needed)
        if child is node.child and aggregates is node.aggregates:
            return node
        return Q.Agg(child, node.group_keys, aggregates, node.having)


def _expr_columns(expr: Optional[E.Expr]) -> Set[str]:
    if expr is None:
        return set()
    return set(E.columns_used(expr))
