"""Access-path selection: the physical rules of the plan optimizer.

These rules replace logical operator shapes by their access-layer-served
physical counterparts (:mod:`repro.storage.access`):

* **PrunedScanSelection** — ``Select`` directly over a ``Scan`` becomes a
  :class:`~repro.dsl.qplan.PrunedScan` carrying the predicate's prunable
  conjuncts as zone filters, so engines can jump to a candidate row list
  (sorted-column partition pruning, a selective filtered pass).
* **IndexJoinSelection** — a hash join whose build side is a bare scan keyed
  on the scanned table's unique, dense single-column primary key becomes an
  :class:`~repro.dsl.qplan.IndexJoin`: its build is the key's load-time
  direct array instead of a per-query hash table.

Both rewrites are order- and value-preserving (the executed access path
reproduces the parent operator's emission order exactly — unique keys mean
one-row buckets, and pruning only skips rows the predicate rejects), so they
run in *every* rule set, including ``PlannerOptions.exact_order()``.  They
fire as the final planner phase, after join reordering and field pruning
have settled the plan's logical shape.
"""
from __future__ import annotations

from typing import Optional, Tuple

from ..dsl import expr as E
from ..dsl import qplan as Q
from ..storage.access import extract_zone_filters
from .rewrite import PlanRule, PlannerContext


def index_eligible_build(join: Q.HashJoin, catalog) -> Optional[Tuple[str, str]]:
    """``(table, key_column)`` when a join's build side can be index-served.

    Requires a join kind every engine runs over an index build (inner, left
    semi, left anti, left outer); a build side that is a bare ``Scan``; a
    build key that is exactly the scanned table's single-column primary key;
    and statistics confirming the key is unique and dense in the loaded data
    (``ColumnStatistics.is_dense_key``), so the access layer holds its direct
    array.  A bare-scan build is always worth index-serving: the per-query
    hash build it replaces is a full pass over the table, and the probe costs
    nothing extra.  Also consulted by the cost-based build-side swap: an
    index-served build side costs nothing to "build", so it must never be
    swapped away.
    """
    if join.kind not in ("inner", "leftsemi", "leftanti", "leftouter"):
        return None
    scan, key = join.left, join.left_key
    if not isinstance(scan, Q.Scan):
        return None
    if not (isinstance(key, E.Col) and key.side is None):
        return None
    if not catalog.is_primary_key(scan.table, key.name):
        return None
    statistics = getattr(catalog, "statistics", None)
    if statistics is None or not statistics.has_column(scan.table, key.name):
        return None
    stats = statistics.column(scan.table, key.name)
    if not (stats.is_unique and stats.is_dense_key()):
        return None
    return scan.table, key.name


class IndexJoinSelection(PlanRule):
    """Serve PK-build hash joins from the catalog's load-time key index."""

    name = "index-join"

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        if not isinstance(node, Q.HashJoin) or isinstance(node, Q.IndexJoin):
            return None
        eligible = index_eligible_build(node, context.catalog)
        if eligible is None:
            return None
        table, column = eligible
        return Q.IndexJoin(node.left, node.right, node.left_key, node.right_key,
                           node.kind, node.residual, table, column)


class PrunedScanSelection(PlanRule):
    """Attach partition-pruning hints to filters sitting directly on scans."""

    name = "pruned-scan"

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        if type(node) is not Q.Select:  # not PrunedScan again
            return None
        if not isinstance(node.child, Q.Scan):
            return None
        filters = extract_zone_filters(node.predicate,
                                       context.fields_of(node.child))
        if not filters:
            return None
        return Q.PrunedScan(node.child, node.predicate, filters)
