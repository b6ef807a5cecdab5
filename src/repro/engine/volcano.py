"""Volcano-style (iterator model) query interpreter.

This is the classical pull-based engine the paper contrasts compilation with:
every operator is a generator that pulls rows from its children one at a time,
paying interpretation overhead (virtual dispatch, boxed row dictionaries) for
every tuple.

Scalar expressions are no longer tree-walked per row: each operator compiles
its expressions once into Python closures (:mod:`repro.dsl.expr_compile`) and
calls those per tuple.  The boxed-row shape of the interpreter — the thing the
vectorized and compiled engines remove — is unchanged.  An aggregate folds each
row as a one-value run through :mod:`repro.dsl.aggregates`, the one statement
of aggregate semantics every engine shares.

The interpreter plays two roles in this repository:

* it is the **interpreter baseline** of the benchmark harness, and
* it is the **reference implementation**: every compiled configuration must
  produce exactly the same rows on every query (integration tests enforce it).

To be a reference it runs the plan as written and reads values only: each
node runs as its logical operator (a ``PrunedScan`` is the ``Select`` it
subclasses, an ``IndexJoin`` the ``HashJoin``), a repeated subtree runs at
each occurrence, and the only data it reads are the columns of
``catalog.table(...)``.  No dictionary code, key array, candidate list or
shared-subplan cache of the catalog's access layer is consulted, so a defect
in one of those structures shows up as a difference from this engine rather
than grading itself.
"""
from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from ..dsl import qplan
from ..dsl.aggregates import AGGREGATES
from ..dsl.expr_compile import compile_pair, compile_row
from ..robustness.faults import fault_point
from ..robustness.governor import current_governor
from ..storage.catalog import Catalog
from .sortkeys import pass_keys, topk_rows

Row = Dict[str, Any]


class VolcanoError(Exception):
    pass


class VolcanoEngine:
    """Pull-based interpreter over QPlan operator trees."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute(self, plan: qplan.Operator) -> List[Row]:
        """Run a plan to completion and return the list of output rows."""
        rows = list(self.iterate(plan))
        governor = current_governor()
        if governor is not None:
            governor.note_output_rows(len(rows))
        return rows

    def iterate(self, plan: qplan.Operator) -> Iterator[Row]:
        """The iterator-model pipeline for one operator.

        This is the interpreter's cooperative cancellation point: with a
        governor installed, every operator's ``next()`` stream ticks the
        budget per pulled row, so a trip cancels within one row of the limit
        on any pipeline shape.  Without a governor the stream is returned
        unwrapped.
        """
        fault_point("engine.volcano.operator", operator=type(plan).__name__)
        stream = self._dispatch(plan)
        governor = current_governor()
        if governor is None:
            return stream
        return governor.guard_rows(stream)

    def _dispatch(self, plan: qplan.Operator) -> Iterator[Row]:
        """The ``open/next/close`` pipeline for one operator.  A node runs as
        its logical class: a ``PrunedScan`` is the ``Select`` it subclasses
        and an ``IndexJoin`` the ``HashJoin``."""
        if isinstance(plan, qplan.Scan):
            return self._scan(plan)
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
        predicate = compile_row(plan.predicate)
        for row in self.iterate(plan.child):
            if predicate(row):
                yield row

    def _project(self, plan: qplan.Project) -> Iterator[Row]:
        projections = [(name, compile_row(expr)) for name, expr in plan.projections]
        for row in self.iterate(plan.child):
            yield {name: fn(row) for name, fn in projections}

    def _hash_join(self, plan: qplan.HashJoin) -> Iterator[Row]:
        """An equi join: the left input bucketed by key, one probe per kind.

        A build row is one object throughout, so the probes of the outer,
        semi and anti kinds track it by ``id``."""
        left_key = compile_row(plan.left_key)
        buckets: Dict[Any, List[Row]] = {}
        for row in self.iterate(plan.left):
            buckets.setdefault(left_key(row), []).append(row)
        matches = buckets.get
        right_key = compile_row(plan.right_key)
        residual = compile_pair(plan.residual) if plan.residual is not None else None

        if plan.kind == "inner":
            for right_row in self.iterate(plan.right):
                for left_row in matches(right_key(right_row), ()):
                    if residual is None or residual(left_row, right_row):
                        yield {**left_row, **right_row}
            return

        # the other kinds are with respect to the left (build) rows: probe
        # first — a left outer join streams its matched pairs meanwhile —
        # then walk the build in bucket order
        outer = plan.kind == "leftouter"
        matched: set = set()
        for right_row in self.iterate(plan.right):
            for left_row in matches(right_key(right_row), ()):
                if residual is None or residual(left_row, right_row):
                    matched.add(id(left_row))
                    if outer:
                        yield {**left_row, **right_row}
        build_rows = [row for rows in buckets.values() for row in rows]
        if outer:
            null_pad = {name: None
                        for name in qplan.output_fields(plan.right, self.catalog)}
            for left_row in build_rows:
                if id(left_row) not in matched:
                    yield {**left_row, **null_pad}
            return
        want_match = plan.kind == "leftsemi"
        for left_row in build_rows:
            if (id(left_row) in matched) == want_match:
                yield left_row

    def _aggregate(self, plan: qplan.Agg) -> Iterator[Row]:
        kernels = [AGGREGATES[agg.kind] for agg in plan.aggregates]
        key_names = [name for name, _ in plan.group_keys]
        key_fns = [compile_row(expr) for _, expr in plan.group_keys]
        # each row is a one-value run of each aggregate; count(*) folds 1
        folds = [(kernel.fold, compile_row(agg.expr) if agg.expr is not None else None)
                 for kernel, agg in zip(kernels, plan.aggregates)]
        having = compile_row(plan.having) if plan.having is not None else None

        groups: Dict[Tuple, List[Any]] = {}
        for row in self.iterate(plan.child):
            key = tuple(fn(row) for fn in key_fns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = groups[key] = [kernel.start() for kernel in kernels]
            for i, (fold, fn) in enumerate(folds):
                accumulators[i] = fold(accumulators[i], (1,) if fn is None else (fn(row),))

        # A global fold (no group keys) over an empty input is not an empty
        # result: it is one row of neutral aggregates — count=0, sum=0,
        # avg/min/max None — exactly what finishing untouched accumulators
        # produces.  Seed the single group so that row is emitted.
        if not groups and not plan.group_keys:
            groups[()] = [kernel.start() for kernel in kernels]

        for key, accumulators in groups.items():
            out = dict(zip(key_names, key))
            for agg, kernel, accumulator in zip(plan.aggregates, kernels, accumulators):
                out[agg.name] = kernel.finish(accumulator)
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


def execute(plan: qplan.Operator, catalog: Catalog) -> List[Row]:
    """Convenience wrapper: run ``plan`` against ``catalog`` with a fresh engine."""
    return VolcanoEngine(catalog).execute(plan)
