"""Pipelining: the push-engine lowering from QPlan into imperative ANF.

Section 5.1 of the paper shows that short-cut (build/foreach) fusion over a
producer/consumer encoding of the operators yields exactly the push engines of
data-centric query compilation: every operator *produces* rows by invoking the
*consume* continuation of its parent, so no intermediate collections are ever
materialised between pipeline-breaking operators.

This module implements that lowering for QPlan.  Each operator method receives
a ``consume`` callback and emits, into the current ANF block, the code that
feeds rows to it.  Pipeline breakers (hash-join builds, aggregations, sorts)
are the only places where records are materialised into data structures.

The same lowering serves every stack configuration; the target language is a
constructor parameter (C.Py for the naive two-level stack, ScaLite for the
three-level one, ScaLite[Map, List] for the four- and five-level stacks), and
the target decides:

* whether rows travel as boxed records (straight into C.Py: there is no level
  below to take the boxes apart) or as per-field locals (scalar replacement
  by construction),
* which record layout (boxed dictionaries vs row tuples) materialised rows
  use (Section 4.2 / Figure 3) — boxed, again, only straight into C.Py, and
* whether hash-table builds over base relations are *partitioned at loading
  time* (automatic index inference + data-structure partitioning, Section
  B.1), which needs the hash-table specialization below ScaLite[Map, List]
  and is the one thing the TPC-H compliant stack turns off
  (``partition_base_builds``): a lookup of the catalog's resident partition
  of row positions when the catalog access layer is on, a build loop in the
  hoisted block otherwise.

There is one join lowering per join shape.  The planner's ``IndexJoin`` (a
hash join whose build side is a base table with a load-time unique-key index)
is lowered as the ``HashJoin`` it subclasses: its build is a base-table build
over a dense integer key, so with the access layer on it becomes the resident
partition like any other, and the list-level specialization claims a
primary-key partition as ``single`` — slots served by the unique-key index
itself, read by inline indexing.  A merely-unique key (sparse or non-integer)
gets the per-query hash build; only the direct engines probe a ``DictIndex``.

Key-range and uniqueness facts about hash-table keys are attached to the
``mmap_new`` / ``hashmap_agg_new`` statements as attributes — the annotation
mechanism of Section 3.3 — and consumed later by the hash-table
specialization lowering.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dsl import expr as E
from ..dsl import qplan as Q
from ..ir.builder import IRBuilder
from ..ir.nodes import Atom, Const, Program, Sym
from ..stack.context import CompilationContext
from ..stack.language import C_PY, Language, QPLAN, SCALITE_MAP_LIST
from ..stack.transformation import Lowering
from .rowvals import RowVals
from .scalar_compiler import ScalarCompiler
from .subplan_sharing import SharedSubplanMaterializer

Consumer = Callable[[RowVals], None]


class PipeliningError(Exception):
    pass


class PushPipelineLowering(Lowering):
    """Lower a QPlan operator tree into an imperative ANF program."""

    def __init__(self, target: Language, name: str = "pipelining",
                 partition_base_builds: bool = True) -> None:
        self.name = name
        self.partition_base_builds = partition_base_builds
        super().__init__(QPLAN, target)

    def run(self, plan: Q.Operator, context: CompilationContext) -> Program:
        if context.catalog is None:
            raise PipeliningError("pipelining requires a catalog in the compilation context")
        compiler = _PushCompiler(context, self.target, self.partition_base_builds)
        return compiler.compile(plan)


class _PushCompiler:
    """One compilation run of the push engine."""

    def __init__(self, context: CompilationContext, target: Language,
                 partition_base_builds: bool) -> None:
        self.context = context
        self.catalog = context.catalog
        self.flags = context.flags
        self.target = target
        self.db = Sym("db")
        self.body = IRBuilder()
        self.hoisted = IRBuilder()
        self._builders = [self.body]
        self.scalars = ScalarCompiler(self.body)
        #: rows are boxed records iff the program goes straight into C.Py;
        #: any level in between gets per-field locals and row tuples
        self.scalar_rows = target is not C_PY
        #: record layout used for materialised intermediate rows
        self.record_layout = "row" if self.scalar_rows else "boxed"
        #: whether hash builds over base relations move to loading time: only
        #: a stack that lowers MultiMaps can index the partitions
        self.partition_base_builds = (partition_base_builds
                                      and target is SCALITE_MAP_LIST)
        #: whether pipelines consume the catalog-resident access layer
        self.catalog_access = bool(self.flags.catalog_access_layer
                                   and getattr(self.catalog, "statistics", None)
                                   is not None)
        #: shared-subplan bindings (armed per plan in :meth:`compile`)
        self.sharing: Optional[SharedSubplanMaterializer] = None
        #: catalog-resident partitions already fetched in the hoisted block:
        #: ``(table, column, probe_in_range) -> sym`` (the bounds-check
        #: decision rides on the fetch, so probes share one only when they
        #: agree on it)
        self._partitions: Dict[Tuple[str, str, bool], Sym] = {}

    # ------------------------------------------------------------------
    # Builder management
    # ------------------------------------------------------------------
    @property
    def b(self) -> IRBuilder:
        return self._builders[-1]

    def _use_builder(self, builder: IRBuilder):
        self._builders.append(builder)
        self.scalars = ScalarCompiler(builder)

    def _pop_builder(self) -> None:
        self._builders.pop()
        self.scalars = ScalarCompiler(self.b)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def compile(self, plan: Q.Operator) -> Program:
        self.sharing = SharedSubplanMaterializer(plan, self.flags)
        result_fields = Q.output_fields(plan, self.catalog)
        result = self.b.emit("list_new", [], hint="result")

        def emit_output(row: RowVals) -> None:
            record, _ = row.materialize(self.b, "boxed", result_fields)
            self.b.emit("list_append", [result, record])

        self.produce(plan, emit_output)
        body_block = self.b.finish(result)
        hoisted_block = self.hoisted.finish()
        return Program(body=body_block, params=(self.db,), language=self.target.name,
                       hoisted=hoisted_block)

    # ------------------------------------------------------------------
    # Produce/consume dispatch
    # ------------------------------------------------------------------
    def produce(self, node: Q.Operator, consume: Consumer) -> None:
        if self.sharing is not None and self.sharing.try_produce(self, node, consume):
            return
        self.dispatch_produce(node, consume)

    def dispatch_produce(self, node: Q.Operator, consume: Consumer) -> None:
        """Emit a node's pipeline without consulting the shared-subplan cache
        (the materializer itself routes through here to avoid recursing)."""
        if isinstance(node, Q.Scan):
            self._scan(node, consume)
        elif isinstance(node, Q.PrunedScan):
            self._pruned_scan(node, consume)
        elif isinstance(node, Q.Select):
            self._select(node, consume)
        elif isinstance(node, Q.Project):
            self._project(node, consume)
        elif isinstance(node, Q.HashJoin):
            # Q.IndexJoin included: it is lowered as the hash join it
            # subclasses (module docstring)
            self._hash_join(node, consume)
        elif isinstance(node, Q.NestedLoopJoin):
            self._nested_loop_join(node, consume)
        elif isinstance(node, Q.Agg):
            self._aggregate(node, consume)
        elif isinstance(node, Q.Sort):
            self._sort(node, consume)
        elif isinstance(node, Q.TopK):
            self._topk(node, consume)
        elif isinstance(node, Q.Limit):
            self._limit(node, consume)
        else:
            raise PipeliningError(f"unknown QPlan operator {type(node).__name__}")

    # ------------------------------------------------------------------
    # Leaf and tuple-at-a-time operators
    # ------------------------------------------------------------------
    def _scan(self, node: Q.Scan, consume: Consumer) -> None:
        b = self.b
        size = b.emit("table_size", [self.db], attrs={"table": node.table}, hint="n")
        fields, columns = self._scan_columns(node)
        b.for_range(0, size,
                    lambda index: consume(self._fetch_row(columns, fields, index)),
                    hint="i")

    def _select(self, node: Q.Select, consume: Consumer) -> None:
        def filtered(row: RowVals) -> None:
            cond = self.scalars.compile(node.predicate, row)
            self.b.if_(cond, lambda: consume(row))

        self.produce(node.child, filtered)

    # ------------------------------------------------------------------
    # Catalog-access-layer scans
    # ------------------------------------------------------------------
    def _scan_columns(self, scan: Q.Scan) -> Tuple[List[str], Dict[str, Sym]]:
        """Column arrays of a base-table scan, bound in the current block."""
        b = self.b
        fields = list(scan.fields) if scan.fields is not None else \
            self.catalog.schema.table(scan.table).column_names()
        columns = {name: b.emit("table_column", [self.db],
                                attrs={"table": scan.table, "column": name},
                                hint="col")
                   for name in fields}
        return fields, columns

    def _fetch_row(self, columns: Dict[str, Sym], fields: Sequence[str],
                   index: Atom) -> RowVals:
        """The row at ``index``, in the active row representation."""
        b = self.b
        if self.scalar_rows:
            return RowVals.scalars({name: b.emit("array_get",
                                                 [columns[name], index],
                                                 hint=name[:10])
                                    for name in fields})
        # Naive (two-level) behaviour: build one boxed record per row and
        # pass it down the pipeline.
        values = [b.emit("array_get", [columns[name], index]) for name in fields]
        record = b.emit("record_new", values,
                        attrs={"fields": tuple(fields), "layout": "boxed"},
                        hint="rec")
        return RowVals.record_backed(b, record, fields, layout="boxed")

    def _pruned_scan(self, node: Q.PrunedScan, consume: Consumer) -> None:
        """``Select(Scan)`` served by the catalog's partition pruning.

        The candidate row positions — a sorted-column slice or the
        zone-map-surviving chunks, memoized on the catalog's access layer —
        are fetched once at data-loading time (the hoisted block); the query
        body loops over candidates only and still evaluates the full
        predicate on each, so rows and emission order are exactly those of
        the unpruned scan-then-filter.
        """
        if not (self.catalog_access and node.zone_filters):
            self._select(node, consume)
            return
        b = self.b
        scan = node.child
        self._use_builder(self.hoisted)
        try:
            candidates = self.b.emit(
                "access_pruned_indices", [self.db],
                attrs={"table": scan.table, "filters": tuple(node.zone_filters)},
                hint="cand")
        finally:
            self._pop_builder()
        fields, columns = self._scan_columns(scan)

        def body(index: Sym) -> None:
            row = self._fetch_row(columns, fields, index)
            cond = self.scalars.compile(node.predicate, row)
            self.b.if_(cond, lambda: consume(row))

        b.foreach(candidates, body, hint="ri")

    def _project(self, node: Q.Project, consume: Consumer) -> None:
        def projected(row: RowVals) -> None:
            values = {name: self.scalars.compile(expr, row) for name, expr in node.projections}
            consume(RowVals.scalars(values))

        self.produce(node.child, projected)

    # ------------------------------------------------------------------
    # Hash joins
    # ------------------------------------------------------------------
    def _hash_join(self, node: Q.HashJoin, consume: Consumer) -> None:
        if node.kind == "inner":
            self._hash_join_inner(node, consume)
        else:
            self._hash_join_left(node, consume)

    def _key_domain(self, key_expr: E.Expr, source_table: Optional[str] = None
                    ) -> Optional[Tuple[str, str]]:
        """The key *domain* of a join/grouping key: the primary-key column it draws from.

        A foreign key draws its values from the primary key it references, so
        two columns share a domain exactly when they resolve (through at most
        one foreign-key hop) to the same ``(table, column)``.  Shared domains
        are what make unguarded direct-array indexing safe (Section B.1's
        "aggressive memory trade-off" arrays are sized by the key domain).
        """
        if not isinstance(key_expr, E.Col):
            return None
        table = source_table or self.catalog.schema.table_of_column(key_expr.name)
        if table is None or not self.catalog.schema.has_table(table):
            return None
        if not self.catalog.schema.table(table).has_column(key_expr.name):
            return None
        column = self.catalog.schema.table(table).column(key_expr.name)
        if column.foreign_key is not None:
            return (column.foreign_key.table, column.foreign_key.column)
        return (table, key_expr.name)

    def _mmap_attrs(self, key_expr: E.Expr, build_table: Optional[str]) -> Dict:
        """Key-range / uniqueness annotations for a hash-table build (Section 3.3)."""
        attrs: Dict = {}
        domain = self._key_domain(key_expr, build_table)
        if domain is None:
            return attrs
        domain_table, domain_column = domain
        if not self.catalog.statistics.has_table(domain_table):
            return attrs
        stats = self.catalog.statistics.column(domain_table, domain_column)
        if stats.is_dense_key():
            attrs["key_lo"] = int(stats.min_value)
            attrs["key_hi"] = int(stats.max_value)
            attrs["key_column"] = key_expr.name
            attrs["key_domain"] = domain
            attrs["unique"] = (build_table is not None
                               and isinstance(key_expr, E.Col)
                               and self.catalog.is_primary_key(build_table, key_expr.name))
        return attrs

    def _partition_info(self, side: Q.Operator, key_expr: E.Expr):
        """Decide whether a hash build over ``side`` can move to loading time.

        Returns ``(scan, probe_filter)`` when the side is a base relation
        (possibly filtered) whose key column has a dense integer range, or
        ``None`` otherwise.  The filter, if any, is re-applied in the probe
        loop (Figure 7c of the paper).
        """
        if not self.partition_base_builds:
            return None
        probe_filter = None
        candidate = side
        if isinstance(candidate, Q.Select) and isinstance(candidate.child, Q.Scan):
            probe_filter = candidate.predicate
            candidate = candidate.child
        if not isinstance(candidate, Q.Scan) or not isinstance(key_expr, E.Col):
            return None
        table = candidate.table
        if not self.catalog.schema.table(table).has_column(key_expr.name):
            return None
        stats = self.catalog.statistics.column(table, key_expr.name)
        if not stats.is_dense_key():
            return None
        return candidate, probe_filter

    def _build_hash_table(self, side: Q.Operator, key_expr: E.Expr,
                          probe_key_expr: Optional[E.Expr] = None,
                          probe_side: Optional[Q.Operator] = None
                          ) -> Tuple[Sym, List[str], Optional[E.Expr],
                                     Callable[[Sym], RowVals]]:
        """Build (possibly at loading time) a MultiMap over ``side`` keyed by ``key_expr``.

        Returns ``(mmap_sym, stored_fields, probe_filter, bucket_rows)``;
        ``bucket_rows(element)`` is the build row a bucket element stands
        for (a stored record, or a base-table row position).
        """
        fields = Q.output_fields(side, self.catalog)
        partition = self._partition_info(side, key_expr)
        build_table = None
        if isinstance(side, Q.Scan):
            build_table = side.table
        elif isinstance(side, Q.Select) and isinstance(side.child, Q.Scan):
            build_table = side.child.table
        attrs = self._mmap_attrs(key_expr, build_table)
        if attrs:
            # Dense-array specialization pre-allocates one bucket per key of
            # the domain; that is only worthwhile when the build side is a
            # base relation (or the build happens at loading time), which is
            # also the condition Section 5.2 imposes for materialisation.
            attrs["build_is_base"] = build_table is not None
        if attrs and probe_key_expr is not None:
            probe_table = None
            if isinstance(probe_side, Q.Scan):
                probe_table = probe_side.table
            elif isinstance(probe_side, Q.Select) and isinstance(probe_side.child, Q.Scan):
                probe_table = probe_side.child.table
            probe_domain = self._key_domain(probe_key_expr, probe_table)
            # When both keys draw their values from the same primary-key
            # domain, foreign-key integrity guarantees that every probe key
            # falls inside the array's index range, so the bounds check can
            # be elided in the specialised code.
            attrs["probe_in_range"] = probe_domain == attrs.get("key_domain")

        def stored_row(element: Sym) -> RowVals:
            return self._bucket_rows(element, fields)

        if partition is not None:
            scan, probe_filter = partition
            attrs["partitioned"] = True
            if self._has_resident_partition(scan.table, key_expr.name, attrs):
                return self._resident_partition(scan, key_expr.name, attrs,
                                                probe_filter)
            self._use_builder(self.hoisted)
            try:
                hash_table = self.b.emit("mmap_new", [], attrs=attrs, hint="part")
                self._emit_build_loop(scan, key_expr, hash_table, fields)
            finally:
                self._pop_builder()
            return hash_table, fields, probe_filter, stored_row

        hash_table = self.b.emit("mmap_new", [], attrs=attrs, hint="hm")
        self._emit_build_loop(side, key_expr, hash_table, fields)
        return hash_table, fields, None, stored_row

    def _has_resident_partition(self, table: str, column: str, attrs: Dict) -> bool:
        """Whether a partitioned build can be the catalog's own partition.

        The catalog's partition must cover exactly the key range the
        specialised probe will bake in.  Decided from statistics: nothing is
        built at compile time.
        """
        if not (self.catalog_access and "key_lo" in attrs):
            return False
        from ..storage.access import AccessLayer
        return AccessLayer.for_catalog(self.catalog).partition_domain(
            table, column) == (attrs["key_lo"], attrs["key_hi"])

    def _resident_partition(self, scan: Q.Scan, column: str, attrs: Dict,
                            probe_filter: Optional[E.Expr]):
        """A partitioned build served by the catalog's partition of row
        positions (one per ``(table, column)``, shared by every query,
        request and thread): no build loop at all, and the probe reads the
        payload columns of a matching position from the base table."""
        key = (scan.table, column, bool(attrs.get("probe_in_range")))
        partition = self._partitions.get(key)
        if partition is None:
            self._use_builder(self.hoisted)
            try:
                partition = self._partitions[key] = self.b.emit(
                    "access_partition", [self.db],
                    attrs=dict(attrs, table=scan.table, column=column),
                    hint="part")
            finally:
                self._pop_builder()
        fields, columns = self._scan_columns(scan)

        def row_at(position: Sym) -> RowVals:
            return RowVals.column_backed(self.b, columns, position, fields)

        return partition, fields, probe_filter, row_at

    def _emit_build_loop(self, side: Q.Operator, key_expr: E.Expr, hash_table: Sym,
                         fields: List[str]) -> None:
        def build(row: RowVals) -> None:
            key = self.scalars.compile(key_expr, row)
            record, _ = row.materialize(self.b, self.record_layout, fields)
            self.b.emit("mmap_add", [hash_table, key, record])

        self.produce(side, build)

    def _bucket_rows(self, element: Sym, fields: Sequence[str]) -> RowVals:
        return RowVals.record_backed(self.b, element, fields, layout=self.record_layout)

    def _hash_join_inner(self, node: Q.HashJoin, consume: Consumer) -> None:
        hash_table, build_fields, probe_filter, bucket_rows = self._build_hash_table(
            node.left, node.left_key, node.right_key, node.right)

        def probe(right_row: RowVals) -> None:
            b = self.b
            key = self.scalars.compile(node.right_key, right_row)
            bucket = b.emit("mmap_get", [hash_table, key], hint="bucket")

            def per_match(element: Sym) -> None:
                left_row = bucket_rows(element)

                def emit_match() -> None:
                    combined = left_row.merge(right_row, b)
                    if node.residual is not None:
                        cond = self.scalars.compile(node.residual, combined,
                                                    left=left_row, right=right_row)
                        b.if_(cond, lambda: consume(combined))
                    else:
                        consume(combined)

                if probe_filter is not None:
                    cond = self.scalars.compile(probe_filter, left_row)
                    b.if_(cond, emit_match)
                else:
                    emit_match()

            b.foreach(bucket, per_match, hint="e")

        self.produce(node.right, probe)

    def _hash_join_left(self, node: Q.HashJoin, consume: Consumer) -> None:
        """Semi, anti and outer joins: hash the right side, stream the left side."""
        hash_table, build_fields, probe_filter, bucket_rows = self._build_hash_table(
            node.right, node.right_key, node.left_key, node.left)

        def probe(left_row: RowVals) -> None:
            b = self.b
            key = self.scalars.compile(node.left_key, left_row)
            bucket = b.emit("mmap_get", [hash_table, key], hint="bucket")

            if node.kind in ("leftsemi", "leftanti"):
                found = b.emit("var_new", [Const(False)], hint="found")

                def per_match(element: Sym) -> None:
                    right_row = bucket_rows(element)
                    conds = []
                    if probe_filter is not None:
                        conds.append(self.scalars.compile(probe_filter, right_row))
                    if node.residual is not None:
                        combined = left_row.merge(right_row, b)
                        conds.append(self.scalars.compile(node.residual, combined,
                                                          left=left_row, right=right_row))
                    def mark() -> None:
                        b.emit("var_write", [found, Const(True)])
                    if conds:
                        cond = conds[0]
                        for extra in conds[1:]:
                            cond = b.emit("and_", [cond, extra])
                        b.if_(cond, mark)
                    else:
                        mark()

                b.foreach(bucket, per_match, hint="e")
                matched = b.emit("var_read", [found])
                condition = matched if node.kind == "leftsemi" else b.emit("not_", [matched])
                b.if_(condition, lambda: consume(left_row))
                return

            # left outer join
            matched = b.emit("var_new", [Const(False)], hint="matched")

            def per_match(element: Sym) -> None:
                right_row = bucket_rows(element)

                def emit_match() -> None:
                    b.emit("var_write", [matched, Const(True)])
                    consume(left_row.merge(right_row, b))

                conds = []
                if probe_filter is not None:
                    conds.append(self.scalars.compile(probe_filter, right_row))
                if node.residual is not None:
                    combined = left_row.merge(right_row, b)
                    conds.append(self.scalars.compile(node.residual, combined,
                                                      left=left_row, right=right_row))
                if conds:
                    cond = conds[0]
                    for extra in conds[1:]:
                        cond = b.emit("and_", [cond, extra])
                    b.if_(cond, emit_match)
                else:
                    emit_match()

            b.foreach(bucket, per_match, hint="e")
            was_matched = b.emit("var_read", [matched])
            b.if_(b.emit("not_", [was_matched]),
                  lambda: consume(left_row.merge(RowVals.nulls(build_fields), b)))

        self.produce(node.left, probe)

    # ------------------------------------------------------------------
    # Nested-loop joins (non-equi predicates, cross products)
    # ------------------------------------------------------------------
    def _nested_loop_join(self, node: Q.NestedLoopJoin, consume: Consumer) -> None:
        b = self.b
        right_fields = Q.output_fields(node.right, self.catalog)
        # Materialise the right side once (block nested loop), then stream the left.
        right_list = b.emit("list_new", [], hint="inner")

        def collect(row: RowVals) -> None:
            record, _ = row.materialize(self.b, self.record_layout, right_fields)
            self.b.emit("list_append", [right_list, record])

        self.produce(node.right, collect)

        def probe(left_row: RowVals) -> None:
            if node.kind == "inner":
                def per_right(element: Sym) -> None:
                    right_row = self._bucket_rows(element, right_fields)
                    combined = left_row.merge(right_row, self.b)
                    if node.predicate is not None:
                        cond = self.scalars.compile(node.predicate, combined,
                                                    left=left_row, right=right_row)
                        self.b.if_(cond, lambda: consume(combined))
                    else:
                        consume(combined)
                self.b.foreach(right_list, per_right, hint="e")
                return

            if node.kind in ("leftsemi", "leftanti"):
                found = self.b.emit("var_new", [Const(False)], hint="found")

                def per_right(element: Sym) -> None:
                    right_row = self._bucket_rows(element, right_fields)
                    if node.predicate is not None:
                        combined = left_row.merge(right_row, self.b)
                        cond = self.scalars.compile(node.predicate, combined,
                                                    left=left_row, right=right_row)
                        self.b.if_(cond, lambda: self.b.emit("var_write", [found, Const(True)]))
                    else:
                        self.b.emit("var_write", [found, Const(True)])

                self.b.foreach(right_list, per_right, hint="e")
                matched = self.b.emit("var_read", [found])
                condition = matched if node.kind == "leftsemi" else self.b.emit("not_", [matched])
                self.b.if_(condition, lambda: consume(left_row))
                return

            # left outer nested-loop join
            matched = self.b.emit("var_new", [Const(False)], hint="matched")

            def per_right(element: Sym) -> None:
                right_row = self._bucket_rows(element, right_fields)
                combined = left_row.merge(right_row, self.b)

                def emit_match() -> None:
                    self.b.emit("var_write", [matched, Const(True)])
                    consume(combined)

                if node.predicate is not None:
                    cond = self.scalars.compile(node.predicate, combined,
                                                left=left_row, right=right_row)
                    self.b.if_(cond, emit_match)
                else:
                    emit_match()

            self.b.foreach(right_list, per_right, hint="e")
            was_matched = self.b.emit("var_read", [matched])
            self.b.if_(self.b.emit("not_", [was_matched]),
                       lambda: consume(left_row.merge(RowVals.nulls(right_fields), self.b)))

        self.produce(node.left, probe)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _aggregate(self, node: Q.Agg, consume: Consumer) -> None:
        b = self.b
        agg_kinds = tuple(spec.kind for spec in node.aggregates)
        attrs: Dict = {"aggs": agg_kinds}
        if len(node.group_keys) == 1:
            attrs.update(self._mmap_attrs(node.group_keys[0][1], None))
        table = b.emit("hashmap_agg_new", [], attrs=attrs, hint="agg")

        if not node.group_keys:
            # Seed the single group of a global fold before any input row is
            # consumed: an all-``None`` update creates the group's neutral
            # accumulators without contributing to any aggregate, so an empty
            # input still finalises to one row (count=0, sum=0, others None).
            seed = [Const(None) for _ in node.aggregates]
            b.emit("hashmap_agg_update", [table, Const(0)] + seed,
                   attrs={"aggs": agg_kinds})

        def update(row: RowVals) -> None:
            if not node.group_keys:
                key: Atom = Const(0)
            elif len(node.group_keys) == 1:
                key = self.scalars.compile(node.group_keys[0][1], row)
            else:
                key_atoms = [self.scalars.compile(expr, row) for _, expr in node.group_keys]
                key = self.b.emit("tuple_new", key_atoms, hint="key")
            values = []
            for spec in node.aggregates:
                if spec.expr is None:
                    values.append(Const(1))
                else:
                    values.append(self.scalars.compile(spec.expr, row))
            self.b.emit("hashmap_agg_update", [table, key] + values, attrs={"aggs": agg_kinds})

        self.produce(node.child, update)

        with b.new_block(params=2, hints=["gk", "gv"]) as (group_block, (key_sym, values_sym)):
            row_values: Dict[str, Atom] = {}
            if len(node.group_keys) == 1:
                row_values[node.group_keys[0][0]] = key_sym
            else:
                for index, (name, _) in enumerate(node.group_keys):
                    row_values[name] = b.emit("tuple_get", [key_sym], attrs={"index": index},
                                              hint=name[:10])
            for index, spec in enumerate(node.aggregates):
                row_values[spec.name] = b.emit("tuple_get", [values_sym],
                                               attrs={"index": index}, hint=spec.name[:10])
            out_row = RowVals.scalars(row_values)
            if node.having is not None:
                cond = self.scalars.compile(node.having, out_row)
                b.if_(cond, lambda: consume(out_row))
            else:
                consume(out_row)
        b.emit("hashmap_agg_foreach", [table], attrs={"aggs": agg_kinds}, blocks=[group_block])

    # ------------------------------------------------------------------
    # Sort and limit (pipeline breakers over materialised lists)
    # ------------------------------------------------------------------
    def _sort(self, node: Q.Sort, consume: Consumer) -> None:
        b = self.b
        fields = Q.output_fields(node.child, self.catalog)
        keys = []
        for expr, order in node.keys:
            if not isinstance(expr, E.Col):
                raise PipeliningError(
                    "sort keys must be plain output columns; project the key first")
            keys.append((expr.name, order))
        buffer = b.emit("list_new", [], hint="sortbuf")

        def collect(row: RowVals) -> None:
            record, _ = row.materialize(self.b, self.record_layout, fields)
            self.b.emit("list_append", [buffer, record])

        self.produce(node.child, collect)
        sorted_list = b.emit("list_sort_by_fields", [buffer],
                             attrs={"keys": tuple(keys), "layout": self.record_layout,
                                    "fields": tuple(fields)},
                             hint="sorted")

        def emit(element: Sym) -> None:
            consume(self._bucket_rows(element, fields))

        b.foreach(sorted_list, emit, hint="e")

    def _topk(self, node: Q.TopK, consume: Consumer) -> None:
        """Fused Sort+Limit.  The compiled stacks lower it back to its
        unfused form — an ordinary sort followed by a bounded take — by
        delegating to the Limit/Sort emission: the runtime sort shares the
        null contract of :mod:`repro.engine.sortkeys`, so rows and order are
        identical to the direct engines' heap-based execution."""
        self._limit(Q.Limit(Q.Sort(node.child, node.keys), max(0, node.count)),
                    consume)

    def _limit(self, node: Q.Limit, consume: Consumer) -> None:
        b = self.b
        fields = Q.output_fields(node.child, self.catalog)
        buffer = b.emit("list_new", [], hint="limitbuf")

        def collect(row: RowVals) -> None:
            record, _ = row.materialize(self.b, self.record_layout, fields)
            self.b.emit("list_append", [buffer, record])

        self.produce(node.child, collect)
        taken = b.emit("list_take", [buffer, Const(max(0, node.count))], hint="taken")

        def emit(element: Sym) -> None:
            consume(self._bucket_rows(element, fields))

        b.foreach(taken, emit, hint="e")
