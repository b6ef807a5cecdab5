"""Vectorized (column-at-a-time) columnar execution engine.

MonetDB-style execution for QPlan trees: each operator runs once over whole
columns and produces one :class:`ColumnBatch` — a dictionary of column value
lists plus a selection vector — instead of boxed per-row dictionaries.  A
scan hands out the catalog's columnar storage **zero-copy**; selections only
ever shrink the selection vector; joins gather from columns directly and
aggregations fold through the interpreter's kernel
(:mod:`repro.dsl.aggregates`); rows are materialized once, for the final
result.

Scalar expressions are compiled once per operator into closures that run over
whole columns (:mod:`repro.dsl.expr_compile`), so neither per-row dictionary
construction nor per-row expression-tree walking happens anywhere on the hot
path.  This is the interpreted-engine analogue of the paper's data-structure
specialization lowerings.

The engine is row-identical to :class:`~repro.engine.volcano.VolcanoEngine`
on every plan — including output *order* — which the integration tests
enforce over all 22 TPC-H queries.
"""
from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..dsl import qplan
from ..dsl.aggregates import AGGREGATES
from ..dsl.expr_compile import (compile_columnar, compile_columnar_pair,
                                compile_columnar_predicate, compile_row)
from ..robustness.faults import fault_point
from ..robustness.governor import current_governor
from ..storage.access import AccessLayer, DirectArray, rewrite_string_predicates
from ..storage.catalog import Catalog
from .sortkeys import pass_keys, topk_indices

Row = Dict[str, Any]


class VectorizedError(Exception):
    pass


class ColumnBatch:
    """A batch of rows in columnar form.

    ``columns`` maps column names to value lists of ``length`` rows; ``sel``
    is the selection vector: an ordered sequence of row indices into those
    lists, or ``None`` meaning *all* rows.  Filters never copy column data —
    they only replace the selection vector.
    """

    __slots__ = ("columns", "sel", "length")

    def __init__(self, columns: Dict[str, Sequence[Any]],
                 sel: Optional[Sequence[int]], length: int) -> None:
        self.columns = columns
        self.sel = sel
        self.length = length

    def indices(self) -> Sequence[int]:
        """The selected row indices (a ``range`` when nothing is filtered)."""
        return range(self.length) if self.sel is None else self.sel

    @property
    def num_selected(self) -> int:
        return self.length if self.sel is None else len(self.sel)

    def __repr__(self) -> str:
        return (f"ColumnBatch({sorted(self.columns)}, "
                f"{self.num_selected}/{self.length} rows)")


class VectorizedEngine:
    """Column-at-a-time columnar executor over QPlan operator trees: each
    operator runs once over its input's whole columns and returns one
    :class:`ColumnBatch`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        #: per-execution sharing state (``None`` while no execute() is active)
        self._shared_ids: Optional[Dict[int, str]] = None
        self._shared_cache: Optional[Dict[str, ColumnBatch]] = None
        #: detection memo for the last executed plan (identity-keyed)
        self._last_plan: Optional[qplan.Operator] = None
        self._last_shared: Optional[Dict[int, str]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, plan: qplan.Operator) -> List[Row]:
        """Run a plan and materialize the result as boxed rows (done once)."""
        fields = qplan.output_fields(plan, self.catalog)
        with self._sharing_active(plan):
            batch = self.execute_batch(plan)
        columns = [batch.columns[name] for name in fields]
        return [{name: column[i] for name, column in zip(fields, columns)}
                for i in batch.indices()]

    def execute_batch(self, plan: qplan.Operator) -> ColumnBatch:
        """The one output batch of an operator (a shared subplan runs once
        per execution and is replayed from the cache).

        Operators are the engine's cooperative cancellation points: with a
        governor installed each executed operator charges its selected rows
        at one checkpoint, so a budget trip cancels within one operator.  A
        replayed subplan is not charged again.
        """
        fault_point("engine.vectorized.batch", operator=type(plan).__name__)
        key = None if self._shared_ids is None else self._shared_ids.get(id(plan))
        if key is not None:
            cached = self._shared_cache.get(key)
            if cached is not None:
                return cached
        batch = self._dispatch(plan)
        governor = current_governor()
        if governor is not None:
            governor.checkpoint(batch.num_selected)
        if key is not None:
            self._shared_cache[key] = batch
        return batch

    # ------------------------------------------------------------------
    # Common-subtree sharing
    # ------------------------------------------------------------------
    @contextmanager
    def _sharing_active(self, plan: qplan.Operator):
        """Arm the shared-subplan cache for one execution of ``plan``.

        Per execution the repeated subplans
        (:func:`repro.dsl.qplan.shared_subplan_fingerprints`) run once through
        ``_dispatch`` and every further occurrence replays the cached batch.
        Outside this context the cache is disarmed, so a direct
        ``execute_batch`` (without ``execute``) runs unshared.  Detection is
        memoized by plan identity: the harness and the benchmarks execute the
        same plan object many times, and the stored strong reference keeps
        the plan — and thus the ``id()`` keys of its nodes — alive.

        The previous per-execution state is saved and restored rather than
        reset to ``None``: a nested ``execute()`` on the same engine instance
        (the hardened executor reuses engines across ladder attempts, and
        operator callbacks may re-enter) must neither observe the outer
        plan's cached batches nor disarm the outer context on exit.
        The ``finally`` also guarantees error-path hygiene — a query raising
        mid-execution discards its cache, so the next run can never see
        poisoned partial state.
        """
        if plan is self._last_plan:
            shared = self._last_shared
        else:
            shared = qplan.shared_subplan_fingerprints(plan)
            self._last_plan, self._last_shared = plan, shared
        saved = (self._shared_ids, self._shared_cache)
        if shared:
            self._shared_ids, self._shared_cache = shared, {}
        else:
            self._shared_ids = self._shared_cache = None
        try:
            yield
        finally:
            self._shared_ids, self._shared_cache = saved

    def _dispatch(self, plan: qplan.Operator) -> ColumnBatch:
        if isinstance(plan, qplan.Scan):
            return self._scan(plan)
        if isinstance(plan, qplan.PrunedScan):
            return self._filtered_scan(plan.child, plan.predicate, plan.zone_filters)
        if isinstance(plan, qplan.Select):
            return self._select(plan)
        if isinstance(plan, qplan.Project):
            return self._project(plan)
        if isinstance(plan, qplan.HashJoin):
            return self._hash_join(plan)
        if isinstance(plan, qplan.Agg):
            return self._aggregate(plan)
        if isinstance(plan, qplan.Sort):
            return self._sort(plan)
        if isinstance(plan, qplan.TopK):
            return self._topk(plan)
        if isinstance(plan, qplan.Limit):
            return self._limit(plan)
        raise VectorizedError(f"unknown operator {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _materialize(self, plan: qplan.Operator) -> Tuple[Dict[str, Sequence[Any]], int]:
        """An input as contiguous columns: zero-copy when nothing is
        filtered (e.g. a whole-table scan), else gathered at the selection."""
        fields = qplan.output_fields(plan, self.catalog)
        batch = self.execute_batch(plan)
        if batch.sel is None:
            return {name: batch.columns[name] for name in fields}, batch.length
        return _gather(batch.columns, fields, batch.sel), len(batch.sel)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _scan(self, plan: qplan.Scan) -> ColumnBatch:
        table = self.catalog.table(plan.table)
        fields = plan.fields if plan.fields is not None else table.schema.column_names()
        return ColumnBatch({name: table.column(name) for name in fields}, None,
                           table.num_rows)

    def _select(self, plan: qplan.Select) -> ColumnBatch:
        # A filter directly over a base-table scan gets the dictionary
        # treatment: string equality / IN / prefix-LIKE conjuncts compare
        # load-time integer codes instead of strings.
        if isinstance(plan.child, qplan.Scan):
            return self._filtered_scan(plan.child, plan.predicate, None)
        predicate = compile_columnar_predicate(plan.predicate)
        batch = self.execute_batch(plan.child)
        return ColumnBatch(batch.columns, predicate(batch.columns, batch.indices()),
                           batch.length)

    def _filtered_scan(self, scan: qplan.Scan, predicate, zone_filters) -> ColumnBatch:
        """A filter fused onto a base-table scan.

        Zone filters (when present) shrink the evaluated index set through
        the access layer — sorted-column candidate slices or zone-map chunk
        ranges — and dictionary-encoded string columns rewrite the predicate
        to integer code comparisons.  Both legs only ever narrow *which* rows
        the (full) predicate is evaluated on, so the surviving selection
        vector is identical to the unpruned filter, in the same (ascending)
        order, over the same zero-copy columns.
        """
        table = self.catalog.table(scan.table)
        fields = scan.fields if scan.fields is not None else table.schema.column_names()
        columns = {name: table.column(name) for name in fields}
        num_rows = table.num_rows

        layer = AccessLayer.for_catalog(self.catalog)
        predicate, code_columns = rewrite_string_predicates(
            predicate, scan.table, table.schema.columns, layer)
        if code_columns:
            columns = {**columns, **code_columns}
        compiled = compile_columnar_predicate(predicate)

        if zone_filters:
            candidates = layer.pruned_indices(scan.table, zone_filters)
        else:
            candidates = range(num_rows)
        return ColumnBatch(columns, compiled(columns, candidates), num_rows)

    def _project(self, plan: qplan.Project) -> ColumnBatch:
        projections = [(name, compile_columnar(expr)) for name, expr in plan.projections]
        batch = self.execute_batch(plan.child)
        indices = batch.indices()
        return ColumnBatch({name: fn(batch.columns, indices) for name, fn in projections},
                           None, len(indices))

    def _hash_join(self, plan: qplan.HashJoin) -> ColumnBatch:
        """An equi join (``IndexJoin`` included): one build, one probe.

        The build is the primary key's direct array when the plan is an
        ``IndexJoin`` and the catalog holds one (:class:`_KeyBuild`), else
        buckets over the materialised left input (:class:`_HashBuild`).  A
        unique key gives buckets of at most one row and a bare scan's bucket
        order is its base order, so both builds emit the same rows in the
        same order.
        """
        left_fields = qplan.output_fields(plan.left, self.catalog)
        right_fields = qplan.output_fields(plan.right, self.catalog)
        build = self._build(plan, left_fields)
        right_key = compile_columnar(plan.right_key)
        residual_binder = None
        if plan.residual is not None:
            residual_binder = compile_columnar_pair(plan.residual, left_fields, right_fields)
        probe = self.execute_batch(plan.right)
        indices = probe.indices()
        residual = (residual_binder(build.columns, probe.columns)
                    if residual_binder is not None else None)
        left_idx, right_idx = build.pairs(right_key(probe.columns, indices),
                                          indices, residual)

        if plan.kind == "inner":
            columns = _gather(build.columns, left_fields, left_idx)
            columns.update(_gather(probe.columns, right_fields, right_idx))
            return ColumnBatch(columns, None, len(left_idx))

        matched = set(left_idx)
        if plan.kind in ("leftsemi", "leftanti"):
            want_match = plan.kind == "leftsemi"
            keep = [j for j in build.rows() if (j in matched) == want_match]
            return ColumnBatch(build.columns, keep, build.length)

        # left outer: the matched pairs (probe order), then the unmatched
        # build rows null-padded (bucket order) — the interpreter's order
        unmatched = [j for j in build.rows() if j not in matched]
        columns = _gather(build.columns, left_fields, left_idx + unmatched)
        padding = [None] * len(unmatched)
        for name, values in _gather(probe.columns, right_fields, right_idx).items():
            values.extend(padding)
            columns[name] = values
        return ColumnBatch(columns, None, len(left_idx) + len(unmatched))

    def _build(self, plan: qplan.HashJoin, left_fields: List[str]):
        if isinstance(plan, qplan.IndexJoin) and isinstance(plan.left, qplan.Scan):
            index = AccessLayer.for_catalog(self.catalog).key_index(
                plan.index_table, plan.index_column)
            if index is not None:
                table = self.catalog.table(plan.left.table)
                columns = {name: table.column(name) for name in left_fields}
                return _KeyBuild(columns, table.num_rows, index)
        columns, count = self._materialize(plan.left)
        keys = compile_columnar(plan.left_key)(columns, range(count))
        return _HashBuild(columns, count, keys)

    def _aggregate(self, plan: qplan.Agg) -> ColumnBatch:
        aggs = plan.aggregates
        kernels = [AGGREGATES[agg.kind] for agg in aggs]
        key_names = [name for name, _ in plan.group_keys]
        key_fns = [compile_columnar(expr) for _, expr in plan.group_keys]
        value_fns = [compile_columnar(agg.expr) if agg.expr is not None else None
                     for agg in aggs]
        # HAVING runs over the handful of output groups; the row form is fine.
        having = compile_row(plan.having) if plan.having is not None else None

        batch = self.execute_batch(plan.child)
        indices = batch.indices()
        value_columns = [fn(batch.columns, indices) if fn is not None else None
                         for fn in value_fns]

        # Bucket positions by group key (first-seen order).  A global fold is
        # one group, over an empty input too: one row of neutral aggregates
        # (count=0, sum=0, avg/min/max None), as in the interpreter.
        buckets: Dict[Any, Sequence[int]]
        if not key_fns:
            buckets = {(): range(len(indices))}
        else:
            key_columns = [fn(batch.columns, indices) for fn in key_fns]
            keys: Any = key_columns[0] if len(key_columns) == 1 \
                else zip(*key_columns)
            buckets = {}
            for pos, key in enumerate(keys):
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = []
                bucket.append(pos)
        single_key = len(key_fns) == 1

        # Each group's values are one run folded in scan order, so floats
        # add in exactly the interpreter's order.
        out_names = key_names + [agg.name for agg in aggs]
        columns: Dict[str, List[Any]] = {name: [] for name in out_names}
        count = 0
        for key, positions in buckets.items():
            out = dict(zip(key_names, (key,) if single_key else key))
            for agg, kernel, column in zip(aggs, kernels, value_columns):
                # count(*) folds the constant 1 once per row
                run = repeat(1, len(positions)) if column is None \
                    else map(column.__getitem__, positions)
                out[agg.name] = kernel.finish(kernel.fold(kernel.start(), run))
            if having is None or having(out):
                for name in out_names:
                    columns[name].append(out[name])
                count += 1
        return ColumnBatch(columns, None, count)

    def _sort(self, plan: qplan.Sort) -> ColumnBatch:
        columns, count = self._materialize(plan.child)
        # Decorate-sort-undecorate on the selection vector: key columns are
        # computed once, then stable index sorts from the least-significant
        # key up replicate the interpreter's multi-pass ordering exactly
        # (``pass_keys`` applies the shared null contract: nulls last on asc).
        order = list(range(count))
        for expr, direction in reversed(plan.keys):
            keys = pass_keys(compile_columnar(expr)(columns, range(count)))
            order.sort(key=keys.__getitem__, reverse=(direction == "desc"))
        return ColumnBatch(columns, order, count)

    def _topk(self, plan: qplan.TopK) -> ColumnBatch:
        # Fused Sort+Limit: key columns are computed once over the
        # materialised input, then a bounded heap selects the first ``count``
        # indices of the sort order — the full selection vector is never
        # sorted, and only the surviving rows are gathered downstream.
        columns, count = self._materialize(plan.child)
        key_columns = [compile_columnar(expr)(columns, range(count))
                       for expr, _ in plan.keys]
        orders = [order for _, order in plan.keys]
        return ColumnBatch(columns, topk_indices(key_columns, orders, plan.count, count),
                           count)

    def _limit(self, plan: qplan.Limit) -> ColumnBatch:
        if plan.count <= 0:     # the input never runs
            return ColumnBatch(dict.fromkeys(qplan.output_fields(plan, self.catalog), ()),
                               None, 0)
        batch = self.execute_batch(plan.child)
        indices = batch.indices()
        if len(indices) <= plan.count:
            return batch
        return ColumnBatch(batch.columns, indices[:plan.count], batch.length)


def _gather(columns: Dict[str, Sequence[Any]], fields: Sequence[str],
            positions: Sequence[int]) -> Dict[str, List[Any]]:
    """The ``fields`` columns at ``positions``, in that order."""
    gathered: Dict[str, List[Any]] = {}
    for name in fields:
        source = columns[name]
        gathered[name] = [source[j] for j in positions]
    return gathered


# ---------------------------------------------------------------------------
# Join builds.  A build has the left input's ``columns`` (``length`` rows),
# the matching ``(left_idx, right_idx)`` pairs of the probe batch in probe
# order with the residual applied, and its rows in bucket order, which
# left-outer padding and semi/anti emission walk.
# ---------------------------------------------------------------------------
class _HashBuild:
    """The per-query build: the materialised left input bucketed by key."""

    def __init__(self, columns: Dict[str, Sequence[Any]], length: int,
                 keys: Sequence[Any]) -> None:
        self.columns = columns
        self.length = length
        buckets: Dict[Any, List[int]] = {}
        for j in range(length):
            buckets.setdefault(keys[j], []).append(j)
        self.buckets = buckets

    def pairs(self, keys, indices, residual) -> Tuple[List[int], List[int]]:
        buckets = self.buckets
        left_idx: List[int] = []
        right_idx: List[int] = []
        for pos, i in enumerate(indices):
            matches = buckets.get(keys[pos])
            if not matches:
                continue
            for j in matches:
                if residual is None or residual(j, i):
                    left_idx.append(j)
                    right_idx.append(i)
        return left_idx, right_idx

    def rows(self) -> List[int]:
        return [j for rows in self.buckets.values() for j in rows]


class _KeyBuild:
    """The build of a bare-scan join on a dense primary key: the key's
    load-time :class:`~repro.storage.access.DirectArray` over the base
    columns, so nothing is built per query."""

    def __init__(self, columns: Dict[str, Sequence[Any]], length: int,
                 index: DirectArray) -> None:
        self.columns = columns
        self.length = length
        self.index = index

    def pairs(self, keys, indices, residual) -> Tuple[List[int], List[int]]:
        # one fused pass (lookup, residual, pair emission); an ``int`` key
        # indexes the slots inline, any other goes through ``lookup``, which
        # matches 3.0 and True as a dict would
        slots, offset, lookup = self.index.slots, self.index.offset, self.index.lookup
        size = len(slots)
        left_idx: List[int] = []
        right_idx: List[int] = []
        for pos, i in enumerate(indices):
            key = keys[pos]
            if type(key) is int:
                slot = key - offset
                j = slots[slot] if 0 <= slot < size else None
            else:
                j = lookup(key)
            if j is not None and (residual is None or residual(j, i)):
                left_idx.append(j)
                right_idx.append(i)
        return left_idx, right_idx

    def rows(self) -> range:
        return range(self.length)

