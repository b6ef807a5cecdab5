"""Volcano-style (iterator model) query interpreter.

This is the classical pull-based engine the paper contrasts compilation with:
every operator is a generator that pulls rows from its children one at a time,
paying interpretation overhead (virtual dispatch, boxed row dictionaries) for
every tuple.

Scalar expressions are no longer tree-walked per row: each operator compiles
its expressions once into Python closures (:mod:`repro.dsl.expr_compile`) and
calls those per tuple.  The boxed-row shape of the interpreter — the thing the
vectorized and compiled engines remove — is unchanged.

The interpreter plays two roles in this repository:

* it is the **interpreter baseline** of the benchmark harness, and
* it is the **reference implementation**: every compiled configuration must
  produce exactly the same rows on every query (integration tests enforce it).
"""
from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..dsl import qplan
from ..dsl.expr_compile import compile_pair, compile_row
from ..robustness.faults import fault_point
from ..robustness.governor import current_governor
from ..storage.access import AccessLayer, DirectArray, rewrite_string_predicates
from ..storage.catalog import Catalog
from .sharing import SubplanSharing
from .sortkeys import pass_keys, topk_rows

Row = Dict[str, Any]


class VolcanoError(Exception):
    pass


class VolcanoEngine(SubplanSharing):
    """Pull-based interpreter over QPlan operator trees."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._sharing_init()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, plan: qplan.Operator) -> List[Row]:
        """Run a plan to completion and return the list of output rows."""
        with self._sharing_active(plan):
            rows = list(self.iterate(plan))
        governor = current_governor()
        if governor is not None:
            governor.note_output_rows(len(rows))
        return rows

    def iterate(self, plan: qplan.Operator) -> Iterator[Row]:
        """The iterator-model pipeline for one operator (shared subplans are
        executed once and replayed from the materialised cache).

        This is the interpreter's cooperative cancellation point: with a
        governor installed, every operator's ``next()`` stream ticks the
        budget per pulled row, so a trip cancels within one row of the limit
        on any pipeline shape.  Without a governor the stream is returned
        unwrapped.
        """
        fault_point("engine.volcano.operator", operator=type(plan).__name__)
        cached = self._sharing_replay(plan)
        stream = cached if cached is not None else self._dispatch(plan)
        governor = current_governor()
        if governor is None:
            return stream
        return governor.guard_rows(stream)

    def _dispatch(self, plan: qplan.Operator) -> Iterator[Row]:
        """The ``open/next/close`` pipeline for one operator."""
        if isinstance(plan, qplan.Scan):
            return self._scan(plan)
        if isinstance(plan, qplan.PrunedScan):
            return self._pruned_scan(plan)
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
        raise VolcanoError(f"unknown operator {type(plan).__name__}")

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _scan(self, plan: qplan.Scan) -> Iterator[Row]:
        table = self.catalog.table(plan.table)
        fields = plan.fields if plan.fields is not None else table.schema.column_names()
        columns = [table.column(name) for name in fields]
        for i in range(table.num_rows):
            yield {name: column[i] for name, column in zip(fields, columns)}

    def _select(self, plan: qplan.Select) -> Iterator[Row]:
        if isinstance(plan.child, qplan.Scan):
            # Filter directly over a base-table scan: string predicates can
            # then compare dictionary codes instead of raw values.
            return self._filtered_scan(plan.child, plan.predicate, None)
        predicate = compile_row(plan.predicate)

        def stream() -> Iterator[Row]:
            for row in self.iterate(plan.child):
                if predicate(row):
                    yield row
        return stream()

    def _pruned_scan(self, plan: qplan.PrunedScan) -> Iterator[Row]:
        """``Select(Scan(...))`` with partition pruning: the access layer
        turns the zone filters into a candidate row iterable (ascending base
        order, so emission matches the unpruned scan-then-filter exactly) and
        only the candidates pay row construction and predicate evaluation."""
        scan = plan.child
        candidates = AccessLayer.for_catalog(self.catalog).pruned_indices(
            scan.table, plan.zone_filters)
        return self._filtered_scan(scan, plan.predicate, candidates)

    def _filtered_scan(self, scan: qplan.Scan, predicate_expr,
                       candidates) -> Iterator[Row]:
        """A scan-then-filter pipeline with dictionary-code predicates.

        String equality/``IN``/prefix-``LIKE`` comparisons over dictionary
        columns are rewritten to integer code comparisons
        (:func:`repro.storage.access.rewrite_string_predicates`); the code
        columns ride along in the boxed row during evaluation and are
        stripped before the row is emitted, so downstream operators see the
        exact scan-then-filter rows."""
        table = self.catalog.table(scan.table)
        fields = scan.fields if scan.fields is not None else table.schema.column_names()
        columns = {name: table.column(name) for name in fields}
        layer = AccessLayer.for_catalog(self.catalog)
        predicate, code_columns = rewrite_string_predicates(
            predicate_expr, scan.table, table.schema.columns, layer)
        compiled = compile_row(predicate)
        if candidates is None:
            candidates = range(table.num_rows)
        if not code_columns:
            for i in candidates:
                row = {name: column[i] for name, column in columns.items()}
                if compiled(row):
                    yield row
            return
        evaluated = {**columns, **code_columns}
        for i in candidates:
            row = {name: column[i] for name, column in evaluated.items()}
            if compiled(row):
                for extra in code_columns:
                    del row[extra]
                yield row

    def _project(self, plan: qplan.Project) -> Iterator[Row]:
        projections = [(name, compile_row(expr)) for name, expr in plan.projections]
        for row in self.iterate(plan.child):
            yield {name: fn(row) for name, fn in projections}

    def _hash_join(self, plan: qplan.HashJoin) -> Iterator[Row]:
        """An equi join (``IndexJoin`` included): one build, one probe per kind.

        The build is the primary key's direct array when the plan is an
        ``IndexJoin`` and the catalog holds one (:class:`_KeyBuild`), else
        the left input hashed on its key (:class:`_HashBuild`).  A unique key
        gives buckets of at most one row and a bare scan's bucket order is its
        base order, so both builds emit the same rows in the same order.
        """
        build = self._build(plan)
        matches = build.matches
        right_key = compile_row(plan.right_key)
        residual = compile_pair(plan.residual) if plan.residual is not None else None

        if plan.kind == "inner":
            for right_row in self.iterate(plan.right):
                for left_row in matches(right_key(right_row)) or ():
                    if residual is None or residual(left_row, right_row):
                        yield {**left_row, **right_row}
            return

        # the other kinds are with respect to the left (build) rows: probe
        # first — a left outer join streams its matched pairs meanwhile —
        # then walk the build in bucket order
        outer = plan.kind == "leftouter"
        matched: set = set()
        for right_row in self.iterate(plan.right):
            for left_row in matches(right_key(right_row)) or ():
                if residual is None or residual(left_row, right_row):
                    matched.add(id(left_row))
                    if outer:
                        yield {**left_row, **right_row}
        if outer:
            null_pad = {name: None
                        for name in qplan.output_fields(plan.right, self.catalog)}
            for left_row in build.rows():
                if id(left_row) not in matched:
                    yield {**left_row, **null_pad}
            return
        want_match = plan.kind == "leftsemi"
        for left_row in build.rows():
            if (id(left_row) in matched) == want_match:
                yield left_row

    def _build(self, plan: qplan.HashJoin):
        if isinstance(plan, qplan.IndexJoin) and isinstance(plan.left, qplan.Scan):
            index = AccessLayer.for_catalog(self.catalog).key_index(
                plan.index_table, plan.index_column)
            if index is not None:
                table = self.catalog.table(plan.left.table)
                return _KeyBuild(table, qplan.output_fields(plan.left, self.catalog),
                                 index)
        left_key = compile_row(plan.left_key)
        buckets: Dict[Any, List[Row]] = {}
        for row in self.iterate(plan.left):
            buckets.setdefault(left_key(row), []).append(row)
        return _HashBuild(buckets)

    def _aggregate(self, plan: qplan.Agg) -> Iterator[Row]:
        aggs = plan.aggregates
        key_names = [name for name, _ in plan.group_keys]
        key_fns = [compile_row(expr) for _, expr in plan.group_keys]
        agg_fns = [compile_row(agg.expr) if agg.expr is not None else None
                   for agg in aggs]
        having = compile_row(plan.having) if plan.having is not None else None

        groups: Dict[Tuple, List[Any]] = {}
        for row in self.iterate(plan.child):
            key = tuple(fn(row) for fn in key_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [initial_accumulator(a) for a in aggs]
            for i, agg in enumerate(aggs):
                fn = agg_fns[i]
                accumulators[i] = fold_value(agg, accumulators[i],
                                             fn(row) if fn is not None else None)

        # A global fold (no group keys) over an empty input is not an empty
        # result: it is one row of neutral aggregates — count=0, sum=0,
        # avg/min/max None — exactly what finalising untouched accumulators
        # produces.  Seed the single group so that row is emitted.
        if not groups and not plan.group_keys:
            groups[()] = [initial_accumulator(a) for a in aggs]

        for key, accumulators in groups.items():
            out = dict(zip(key_names, key))
            for agg, accumulator in zip(aggs, accumulators):
                out[agg.name] = finalise_accumulator(agg, accumulator)
            if having is None or having(out):
                yield out

    def _sort(self, plan: qplan.Sort) -> Iterator[Row]:
        rows = list(self.iterate(plan.child))
        # Stable sorts applied from the least-significant key to the most
        # significant one implement multi-key ASC/DESC ordering.  Each pass is
        # decorate-sort-undecorate: the key column is computed once per row
        # instead of O(n log n) times inside the comparator; ``pass_keys``
        # applies the shared null contract (nulls last for asc).
        for expr, order in reversed(plan.keys):
            key_fn = compile_row(expr)
            keys = pass_keys([key_fn(row) for row in rows])
            permutation = sorted(range(len(rows)), key=keys.__getitem__,
                                 reverse=(order == "desc"))
            rows = [rows[i] for i in permutation]
        return iter(rows)

    def _topk(self, plan: qplan.TopK) -> Iterator[Row]:
        rows = list(self.iterate(plan.child))
        keys = [(compile_row(expr), order) for expr, order in plan.keys]
        return iter(topk_rows(rows, keys, plan.count))

    def _limit(self, plan: qplan.Limit) -> Iterator[Row]:
        if plan.count <= 0:
            return
        count = 0
        for row in self.iterate(plan.child):
            yield row
            count += 1
            if count >= plan.count:
                break


# ---------------------------------------------------------------------------
# Join builds.  A build has ``matches(key)`` — the build rows a probe key
# matches, or a falsy value when there are none — and ``rows()``, every build
# row in bucket order, which left-outer padding and semi/anti emission walk.
# A build row is one object throughout, so the probes track it by ``id``.
# ---------------------------------------------------------------------------
class _HashBuild:
    """The per-query build: the left input's rows bucketed by key."""

    def __init__(self, buckets: Dict[Any, List[Row]]) -> None:
        self.buckets = buckets
        self.matches = buckets.get

    def rows(self) -> List[Row]:
        return [row for rows in self.buckets.values() for row in rows]


class _KeyBuild:
    """The build of a bare-scan join on a dense primary key: the key's
    load-time :class:`~repro.storage.access.DirectArray` over the base
    columns.  The one-row bucket of a position is made from the base columns
    the first time it is reached."""

    def __init__(self, table, fields: List[str], index: DirectArray) -> None:
        self.fields = fields
        self.columns = [table.column(name) for name in fields]
        self.length = table.num_rows
        self.slots, self.offset, self.lookup = index.slots, index.offset, index.lookup
        #: position -> its bucket, a 1-tuple (truthy, so ``get(...) or``)
        self.buckets: Dict[int, Tuple[Row]] = {}

    def _fetch(self, position: int) -> Tuple[Row]:
        bucket = self.buckets[position] = (
            {name: column[position] for name, column in zip(self.fields, self.columns)},)
        return bucket

    def matches(self, key: Any) -> Optional[Tuple[Row]]:
        # an ``int`` key indexes the slots inline, any other goes through
        # ``lookup``, which matches 3.0 and True as a dict would
        if type(key) is int:
            slot = key - self.offset
            position = self.slots[slot] if 0 <= slot < len(self.slots) else None
        else:
            position = self.lookup(key)
        if position is None:
            return None
        return self.buckets.get(position) or self._fetch(position)

    def rows(self) -> List[Row]:
        buckets, fetch = self.buckets, self._fetch
        return [(buckets.get(position) or fetch(position))[0]
                for position in range(self.length)]


# ---------------------------------------------------------------------------
# Aggregate accumulators (row-at-a-time folding): the reference semantics.
#
# Two copies must stay value-identical with these — the same starts, the
# same adds in the same left-to-right order, on every supported Python: the
# vectorized engine's fold over whole gathered value columns
# (`repro.engine.vectorized._final_value`, a left fold rather than builtin
# `sum`, which compensates float rounding since CPython 3.12) and the
# compiled stacks' folds, which the pipelining lowering emits as statements
# over a group's accumulator record
# (`repro.transforms.pipelining._PushCompiler._fold` / `_finalise`).  The
# parity suites run all three against each other, so a semantic change here
# must be mirrored there (and vice versa).
# ---------------------------------------------------------------------------
def initial_accumulator(agg: qplan.AggSpec):
    if agg.kind in ("sum", "count"):
        return 0
    if agg.kind == "avg":
        return (0.0, 0)
    if agg.kind == "count_distinct":
        return set()
    return None  # min / max start undefined


def fold_value(agg: qplan.AggSpec, accumulator, value):
    """Fold one input value into an accumulator (``value`` is the evaluated
    argument expression, or ``None`` for ``count(*)``)."""
    kind = agg.kind
    if kind == "count":
        if agg.expr is None:
            return accumulator + 1
        return accumulator + (0 if value is None else 1)
    if value is None:
        return accumulator
    if kind == "sum":
        return accumulator + value
    if kind == "avg":
        total, count = accumulator
        return (total + value, count + 1)
    if kind == "min":
        return value if accumulator is None or value < accumulator else accumulator
    if kind == "max":
        return value if accumulator is None or value > accumulator else accumulator
    if kind == "count_distinct":
        accumulator.add(value)
        return accumulator
    raise VolcanoError(f"unknown aggregate {kind!r}")


def finalise_accumulator(agg: qplan.AggSpec, accumulator):
    if agg.kind == "avg":
        total, count = accumulator
        return total / count if count else None
    if agg.kind == "count_distinct":
        return len(accumulator)
    return accumulator


def execute(plan: qplan.Operator, catalog: Catalog) -> List[Row]:
    """Convenience wrapper: run ``plan`` against ``catalog`` with a fresh engine."""
    return VolcanoEngine(catalog).execute(plan)
