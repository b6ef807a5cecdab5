"""Pipelining: the push-engine lowering from QPlan into imperative ANF.

Section 5.1 of the paper shows that short-cut (build/foreach) fusion over a
producer/consumer encoding of the operators yields exactly the push engines of
data-centric query compilation: every operator *produces* rows by invoking the
*consume* continuation of its parent, so no intermediate collections are ever
materialised between pipeline-breaking operators.

This module implements that lowering for QPlan.  Each operator method receives
a ``consume`` callback and emits, into the current ANF block, the code that
feeds rows to it.  Pipeline breakers (hash-join builds, aggregations, sorts)
are the only places where rows are stored in data structures, and a build or
a group stores the least its readers need:

* a hash build stores a build row's *position* when every field its probes
  read is a base column at that position, directly or through a unique key's
  lookup from it (:class:`~repro.transforms.rowvals.Origin`) — the probe reads
  the fields back from the columns; otherwise a tuple of just the fields its
  probes read, and only a marker when they read none;
* a group of one ``sum``, ``count``, ``min`` or ``max`` keeps its accumulator
  value in the table slot (:func:`repro.ir.ops.held_in_slot`); any other group
  has an accumulator record;
* sort and limit buffers hold whole rows.

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
  and the catalog access layer: the build is a lookup of the catalog's
  resident partition of row positions.  Where no resident partition serves
  — the layer off, or a key range it does not cover — the build is the
  ordinary per-query build of the (filtered) side.

There is one join lowering per join shape.  The planner's ``IndexJoin`` (a
hash join whose build side is a bare scan keyed on a unique, dense primary
key) is lowered as the ``HashJoin`` it subclasses: its build is a base-table
build over a dense integer key, so with the access layer on it becomes the
resident partition like any other, and the list-level specialization claims
a primary-key partition as ``single`` — slots served by the key's direct
array itself, read by inline indexing.  The vectorized engine does the same
with that array as its build; the interpreter, the reference, hashes the
scan.

A key that can be ``None`` — its base column holds one, or an outer join
below pads it (:func:`repro.dsl.qplan.padded_fields`) — indexes no slot of a
dense array, so its build, probe or grouping map stays generic.

Key-range and uniqueness facts about hash-table keys are attached to the
``mmap_new`` / ``hashmap_agg_new`` statements as attributes — the annotation
mechanism of Section 3.3 — and consumed later by the hash-table
specialization lowering.
"""
from __future__ import annotations

from itertools import accumulate
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from ..dsl import expr as E
from ..dsl import qplan as Q
from ..dsl.aggregates import AGGREGATES
from ..ir.builder import IRBuilder
from ..ir.nodes import Atom, Const, Program, Sym
from ..ir.ops import held_in_slot
from ..planner.pruning import consumed_fields
from ..stack.context import CompilationContext
from ..stack.language import C_PY, Language, QPLAN, SCALITE_MAP_LIST
from ..stack.transformation import Lowering
from .rowvals import Origin, Reread, RowVals
from .scalar_compiler import ScalarCompiler
from .subplan_sharing import SharedSubplanMaterializer

Consumer = Callable[[RowVals], None]


class PipeliningError(Exception):
    pass


def _scanned_table(side: Optional[Q.Operator]) -> Optional[str]:
    """The base table a bare or filtered scan reads, else ``None``."""
    if isinstance(side, Q.Select):
        side = side.child
    return side.table if isinstance(side, Q.Scan) else None


def _columns(expr: Optional[E.Expr]) -> Set[str]:
    return set(E.columns_used(expr)) if expr is not None else set()


def _derived(origin: Origin, fields: FrozenSet[str], reread: Reread,
             rereads: Dict[Tuple[Reread, FrozenSet[str]], Reread]) -> Origin:
    """The origin an operator derives from ``origin``: the same position,
    its ``fields`` read back by ``reread`` — or by the reread the operator
    already made for ``origin`` (``rereads``).  An outer join below reaches
    the operator from two call sites, and a build above needs them to
    store their rows one way: it compares their rereads by identity."""
    reread = rereads.setdefault((origin.reread, origin.fields), reread)
    return Origin(origin.position, fields, reread)


class _HashBuild(NamedTuple):
    """A hash table over one side of a join, as the join's probes see it."""

    table: Sym
    #: the build side's output fields (what an outer join pads with NULLs)
    fields: List[str]
    #: the fields the probes read of a build row
    reads: List[str]
    #: the build side's filter, applied by the probe (a resident partition)
    probe_filter: Optional[E.Expr]
    #: ``each_row(element, consume)`` emits the build row a bucket element
    #: stands for and hands it to ``consume``
    each_row: Callable[[Sym, Consumer], None]
    #: at most one build row per key
    unique: bool


class PushPipelineLowering(Lowering):
    """Lower a QPlan operator tree into an imperative ANF program."""

    def __init__(self, target: Language, name: str = "pipelining") -> None:
        self.name = name
        super().__init__(QPLAN, target)

    def run(self, plan: Q.Operator, context: CompilationContext) -> Program:
        if context.catalog is None:
            raise PipeliningError("pipelining requires a catalog in the compilation context")
        compiler = _PushCompiler(context, self.target)
        return compiler.compile(plan)


class _PushCompiler:
    """One compilation run of the push engine."""

    def __init__(self, context: CompilationContext, target: Language) -> None:
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
        #: whether pipelines consume the catalog-resident access layer
        self.catalog_access = bool(self.flags.catalog_access_layer
                                   and getattr(self.catalog, "statistics", None)
                                   is not None)
        #: whether hash builds over base relations can be the catalog's
        #: resident partitions: only a stack that lowers MultiMaps can index
        #: them
        self.resident_partitions = self.catalog_access and target is SCALITE_MAP_LIST
        #: shared-subplan bindings (armed per plan in :meth:`compile`)
        self.sharing: Optional[SharedSubplanMaterializer] = None
        #: catalog-resident partitions already fetched in the hoisted block:
        #: ``(table, column, probe_in_range) -> sym`` (the bounds-check
        #: decision rides on the fetch, so probes share one only when they
        #: agree on it)
        self._partitions: Dict[Tuple[str, str, bool], Sym] = {}
        #: ``id(node) ->`` the fields its consumers read (armed in :meth:`compile`)
        self._consumed: Dict[int, Set[str]] = {}

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
        self._consumed = self._consumed_fields(plan)
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

    def _consumed_fields(self, plan: Q.Operator) -> Dict[int, Set[str]]:
        """``id(node) ->`` the fields of ``node``'s rows that the code
        consuming them reads: what pruning would keep, except where the
        lowering stores whole rows — a sort or limit buffer and a shared
        subplan."""
        whole_rows: Set[int] = set()
        for node in Q.walk(plan):
            if self.sharing.materializes(node):
                whole_rows.add(id(node))
            if isinstance(node, (Q.Sort, Q.TopK, Q.Limit)):
                whole_rows.add(id(node.child))
        return consumed_fields(plan, self.catalog, whole_rows)

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
                                    for name in fields},
                                   origins=[Origin(index, frozenset(fields),
                                                   self._column_reread(columns))])
        # Naive (two-level) behaviour: build one boxed record per row and
        # pass it down the pipeline.
        values = [b.emit("array_get", [columns[name], index]) for name in fields]
        record = b.emit("record_new", values,
                        attrs={"fields": tuple(fields), "layout": "boxed"},
                        hint="rec")
        return RowVals.record_backed(b, record, fields, layout="boxed")

    def _column_reread(self, columns: Dict[str, Sym]) -> Reread:
        """How a stored position of a row of ``columns`` reads its fields
        back: column by column, on demand."""
        def reread(stored: Atom, wanted: Sequence[str], consume: Consumer) -> None:
            consume(RowVals.column_backed(self.b, columns, stored, wanted))
        return reread

    def _pruned_scan(self, node: Q.PrunedScan, consume: Consumer) -> None:
        """``Select(Scan)`` served by the catalog's partition pruning.

        The candidate row positions — a sorted-column slice or a selective
        filter's candidate list, memoized on the catalog's access layer —
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
        renames = {name: expr.name for name, expr in node.projections
                   if isinstance(expr, E.Col)}
        rereads: Dict[Tuple[Reread, FrozenSet[str]], Reread] = {}

        def projected(row: RowVals) -> None:
            values = {name: self.scalars.compile(expr, row) for name, expr in node.projections}
            origins = [self._renamed(origin, renames, rereads) for origin in row.origins]
            consume(RowVals.scalars(values, origins=[o for o in origins if o is not None]))

        self.produce(node.child, projected)

    def _renamed(self, origin: Origin, renames: Dict[str, str],
                 rereads: Dict[Tuple[Reread, FrozenSet[str]], Reread]) -> Optional[Origin]:
        """``origin`` seen through a projection: the outputs that copy one of
        its fields (``renames``: output name -> input name)."""
        sources = {name: source for name, source in renames.items()
                   if source in origin.fields}
        if not sources:
            return None
        parent = origin.reread

        def reread(stored: Atom, wanted: Sequence[str], consume: Consumer) -> None:
            inputs = list(dict.fromkeys(sources[name] for name in wanted))
            parent(stored, inputs, lambda row: consume(
                RowVals.scalars({name: row.get(sources[name]) for name in wanted})))

        return _derived(origin, frozenset(sources), reread, rereads)

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

    def _holds_null(self, key_expr: E.Expr, source: Q.Operator) -> bool:
        """Whether a key read from the output of ``source`` can be ``None``:
        its base column holds one, or an outer join in ``source`` pads it.
        Such a key indexes no slot of a dense array, so its map stays
        generic."""
        if not isinstance(key_expr, E.Col):
            return False
        name = key_expr.name
        table = _scanned_table(source) or self.catalog.schema.table_of_column(name)
        statistics = self.catalog.statistics
        if (table is not None and statistics.has_column(table, name)
                and statistics.column(table, name).num_nulls > 0):
            return True
        return name in Q.padded_fields(source, self.catalog)

    def _mmap_attrs(self, key_expr: E.Expr, build_table: Optional[str],
                    source: Q.Operator) -> Dict:
        """Key-range / uniqueness annotations for a hash-table build (Section
        3.3) keyed by ``key_expr`` over the output of ``source``."""
        attrs: Dict = {}
        domain = self._key_domain(key_expr, build_table)
        if domain is None or self._holds_null(key_expr, source):
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

    def _partition_info(self, side: Q.Operator, key_expr: E.Expr, attrs: Dict):
        """Decide whether a hash build over ``side`` is the catalog's resident
        partition, specialised by the ``attrs`` :meth:`_mmap_attrs` gave it.

        Returns ``(scan, probe_filter)`` when the side is a base relation
        (possibly filtered) and the catalog's partition of its key column
        covers exactly the key range the specialised probe will bake in, or
        ``None`` otherwise.  Decided from statistics: nothing is built at
        compile time.  The filter, if any, is re-applied in the probe loop
        (Figure 7c of the paper).
        """
        if not (self.resident_partitions and "key_lo" in attrs):
            return None
        probe_filter = None
        candidate = side
        if isinstance(candidate, Q.Select) and isinstance(candidate.child, Q.Scan):
            probe_filter = candidate.predicate
            candidate = candidate.child
        if not isinstance(candidate, Q.Scan) or not isinstance(key_expr, E.Col):
            return None
        from ..storage.access import AccessLayer
        domain = AccessLayer.for_catalog(self.catalog).partition_domain(
            candidate.table, key_expr.name)
        if domain != (attrs["key_lo"], attrs["key_hi"]):
            return None
        return candidate, probe_filter

    def _build_hash_table(self, side: Q.Operator, key_expr: E.Expr, needed: Set[str],
                          probe_key_expr: Optional[E.Expr] = None,
                          probe_side: Optional[Q.Operator] = None) -> _HashBuild:
        """Build a MultiMap over ``side`` keyed by ``key_expr`` — or fetch the
        catalog's resident partition standing for it — whose probes read the
        ``needed`` fields of a build row (those of ``side`` among them)."""
        fields = Q.output_fields(side, self.catalog)
        build_table, probe_table = _scanned_table(side), _scanned_table(probe_side)
        attrs = self._mmap_attrs(key_expr, build_table, side)
        if probe_key_expr is not None and self._holds_null(probe_key_expr, probe_side):
            attrs = {}
        if attrs:
            # Dense-array specialization pre-allocates one bucket per key of
            # the domain; that is only worthwhile when the build side is a
            # base relation, which is also the condition Section 5.2 imposes
            # for materialisation.
            attrs["build_is_base"] = build_table is not None
        if attrs and probe_key_expr is not None:
            probe_domain = self._key_domain(probe_key_expr, probe_table)
            # When both keys draw their values from the same primary-key
            # domain, foreign-key integrity guarantees that every probe key
            # falls inside the array's index range, so the bounds check can
            # be elided in the specialised code.
            attrs["probe_in_range"] = probe_domain == attrs.get("key_domain")
        partition = self._partition_info(side, key_expr, attrs)
        probe_filter = partition[1] if partition is not None else None
        wanted = needed | _columns(probe_filter)
        reads = [name for name in fields if name in wanted]
        unique = bool(attrs.get("unique"))

        if partition is None:
            table = self.b.emit("mmap_new", [], attrs=attrs, hint="hm")
            each_row = self._emit_build_loop(side, key_expr, table, reads)
            return _HashBuild(table, fields, reads, None, each_row, unique)
        table, each_row = self._resident_partition(partition[0], key_expr.name, attrs, reads)
        return _HashBuild(table, fields, reads, probe_filter, each_row, unique)

    def _resident_partition(self, scan: Q.Scan, column: str, attrs: Dict,
                            reads: Sequence[str]):
        """A build served by the catalog's partition of row positions (one
        per ``(table, column)``, shared by every query, request and thread):
        no build loop at all, and the probe reads the payload columns of a
        matching position from the base table."""
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
        _, columns = self._scan_columns(scan)
        reread = self._column_reread(columns)

        def each_row(position: Sym, consume: Consumer) -> None:
            consume(RowVals.column_backed(self.b, columns, position, reads,
                                          origins=[Origin(position, frozenset(reads), reread)]))

        return partition, each_row

    def _emit_build_loop(self, side: Q.Operator, key_expr: E.Expr, hash_table: Sym,
                         reads: List[str]) -> Callable[[Sym, Consumer], None]:
        """Fill ``hash_table`` from the rows of ``side``; returns how a bucket
        element gives its build row back.

        A build row is stored as the least its probes need: a marker when
        they read no field, the row position when every field they read is
        a base column at it (an :class:`Origin` of the row), else the record
        the row is already read from, or a new one of just those fields.
        """
        #: per call site, what it stored: ``()`` (a marker), the origin whose
        #: position it stored, or the fields of the record it stored
        stored: List[object] = []

        def build(row: RowVals) -> None:
            key = self.scalars.compile(key_expr, row)
            origin = next((origin for origin in row.origins
                           if origin.fields.issuperset(reads)), None)
            if not reads:
                value: Atom = Const(True)
                stored.append(())
            elif origin is not None:
                value = origin.position
                stored.append(origin)
            else:
                value, kept = (row.backing(self.record_layout, reads)
                               or row.materialize(self.b, self.record_layout, reads))
                stored.append(kept)
            self.b.emit("mmap_add", [hash_table, key, value])

        self.produce(side, build)
        ways = {how.reread if isinstance(how, Origin) else how for how in stored}
        if len(ways) != 1:
            raise PipeliningError(
                f"the build over {type(side).__name__} stores its rows in "
                f"{len(ways)} ways; its probes need one way to read them back")
        how = stored[0]
        if isinstance(how, Origin):
            def each_row(element: Sym, consume: Consumer) -> None:
                def rooted(row: RowVals) -> None:
                    row.origins = (Origin(element, frozenset(reads), how.reread),)
                    consume(row)
                how.reread(element, reads, rooted)
            return each_row
        if how:
            return lambda element, consume: consume(self._bucket_rows(element, how))
        return lambda element, consume: consume(RowVals({}))

    def _bucket_rows(self, element: Sym, fields: Sequence[str]) -> RowVals:
        return RowVals.record_backed(self.b, element, fields, layout=self.record_layout)

    def _probe_reads(self, node: Q.HashJoin) -> Set[str]:
        """The fields a join's probe reads of a build row: its residual's,
        and what the join's consumers read unless it is a semi or anti join
        (which passes its probe rows on alone)."""
        reads = _columns(node.residual)
        if node.kind not in ("leftsemi", "leftanti"):
            reads |= self._consumed[id(node)]
        return reads

    def _through(self, origin: Origin, key_expr: E.Expr, build: _HashBuild,
                 rereads: Dict[Tuple[Reread, FrozenSet[str]], Reread]) -> Optional[Origin]:
        """A probe row's ``origin`` extended with the build row its key
        finds, when the key is unique: a later build stores the probe row's
        position alone, and its probe looks the build row up again.  The row
        was joined after passing the join's filters, and no other row has
        its key, so the lookup applies none of them."""
        key_columns = E.columns_used(key_expr)
        if not build.unique or not origin.fields.issuperset(key_columns):
            return None
        parent, fields = origin.reread, origin.fields

        def reread(stored: Atom, wanted: Sequence[str], consume: Consumer) -> None:
            own = [name for name in wanted if name in fields]
            if len(own) == len(wanted):
                parent(stored, own, consume)
                return

            def look_up(row: RowVals) -> None:
                b = self.b
                key = self.scalars.compile(key_expr, row)
                bucket = b.emit("mmap_get", [build.table, key], hint="bucket")
                b.foreach(bucket, lambda element: build.each_row(
                    element, lambda found: consume(found.merge(row, b))), hint="e")

            parent(stored, own + [name for name in key_columns if name not in own], look_up)

        return _derived(origin, fields | frozenset(build.reads), reread, rereads)

    def _hash_join_inner(self, node: Q.HashJoin, consume: Consumer) -> None:
        build = self._build_hash_table(node.left, node.left_key, self._probe_reads(node),
                                       node.right_key, node.right)
        rereads: Dict[Tuple[Reread, FrozenSet[str]], Reread] = {}

        def probe(right_row: RowVals) -> None:
            b = self.b
            key = self.scalars.compile(node.right_key, right_row)
            bucket = b.emit("mmap_get", [build.table, key], hint="bucket")
            origins = [self._through(origin, node.right_key, build, rereads)
                       for origin in right_row.origins]
            through = tuple(origin for origin in origins if origin is not None)

            def per_match(left_row: RowVals) -> None:
                def emit_match() -> None:
                    combined = left_row.merge(right_row, b)
                    combined.origins = left_row.origins + right_row.origins + through
                    if node.residual is not None:
                        cond = self.scalars.compile(node.residual, combined,
                                                    left=left_row, right=right_row)
                        b.if_(cond, lambda: consume(combined))
                    else:
                        consume(combined)

                if build.probe_filter is not None:
                    cond = self.scalars.compile(build.probe_filter, left_row)
                    b.if_(cond, emit_match)
                else:
                    emit_match()

            b.foreach(bucket, lambda element: build.each_row(element, per_match), hint="e")

        self.produce(node.right, probe)

    def _hash_join_left(self, node: Q.HashJoin, consume: Consumer) -> None:
        """Semi, anti and outer joins: hash the right side, stream the left side."""
        build = self._build_hash_table(node.right, node.right_key, self._probe_reads(node),
                                       node.left_key, node.left)

        def if_matches(left_row: RowVals, right_row: RowVals,
                       then: Callable[[], None]) -> None:
            """Run ``then`` where the pair matches: the build's probe filter
            and the join's residual, and-ed (unconditionally with neither)."""
            b = self.b
            conds = []
            if build.probe_filter is not None:
                conds.append(self.scalars.compile(build.probe_filter, right_row))
            if node.residual is not None:
                combined = left_row.merge(right_row, b)
                conds.append(self.scalars.compile(node.residual, combined,
                                                  left=left_row, right=right_row))
            if not conds:
                then()
                return
            cond = conds[0]
            for extra in conds[1:]:
                cond = b.emit("and_", [cond, extra])
            b.if_(cond, then)

        def probe(left_row: RowVals) -> None:
            b = self.b
            key = self.scalars.compile(node.left_key, left_row)
            bucket = b.emit("mmap_get", [build.table, key], hint="bucket")

            if node.kind in ("leftsemi", "leftanti"):
                found = b.emit("var_new", [Const(False)], hint="found")

                def per_match(right_row: RowVals) -> None:
                    def mark() -> None:
                        b.emit("var_write", [found, Const(True)])
                    if_matches(left_row, right_row, mark)

                b.foreach(bucket, lambda element: build.each_row(element, per_match),
                          hint="e")
                matched = b.emit("var_read", [found])
                condition = matched if node.kind == "leftsemi" else b.emit("not_", [matched])
                b.if_(condition, lambda: consume(left_row))
                return

            # left outer join
            matched = b.emit("var_new", [Const(False)], hint="matched")

            def per_match(right_row: RowVals) -> None:
                def emit_match() -> None:
                    b.emit("var_write", [matched, Const(True)])
                    combined = left_row.merge(right_row, b)
                    combined.origins = left_row.origins
                    consume(combined)

                if_matches(left_row, right_row, emit_match)

            b.foreach(bucket, lambda element: build.each_row(element, per_match), hint="e")
            was_matched = b.emit("var_read", [matched])

            def emit_padded() -> None:
                padded = left_row.merge(RowVals.nulls(build.fields), b)
                padded.origins = left_row.origins
                consume(padded)

            b.if_(b.emit("not_", [was_matched]), emit_padded)

        self.produce(node.left, probe)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _aggregate(self, node: Q.Agg, consume: Consumer) -> None:
        """Group rows in a HashMap; each aggregate's fold and finish are
        statements over the group's accumulator record, laid out from the
        kinds' slots in :mod:`repro.dsl.aggregates` — or, for a group of one
        accumulator value (:func:`repro.ir.ops.held_in_slot`),
        over the table slot itself: the fold reads the slot and writes the
        new value back, and no record is allocated per group."""
        b = self.b
        kinds = tuple(spec.kind for spec in node.aggregates)
        group_attrs = {"aggs": kinds}
        in_slot = held_in_slot(kinds)
        attrs = self._mmap_attrs(node.group_keys[0][1], None, node.child) \
            if len(node.group_keys) == 1 else {}
        table = b.emit("hashmap_agg_new", [], attrs=attrs, hint="agg")
        starts = list(accumulate((len(AGGREGATES[kind].slots) for kind in kinds),
                                 initial=0))

        if not node.group_keys:
            # The single group of a global fold exists before any input row
            # is consumed, so an empty input still finalises to one row
            # (count=0, sum=0, others None).  Each row still looks the group
            # up inside the loop: folds into a record bound outside it would
            # be writes to an outer object, which pin the loop sequential.
            b.emit("hashmap_agg_group", [table, Const(0)], attrs=group_attrs)

        def fold(row: RowVals) -> None:
            if not node.group_keys:
                key: Atom = Const(0)
            elif len(node.group_keys) == 1:
                key = self.scalars.compile(node.group_keys[0][1], row)
            else:
                key_atoms = [self.scalars.compile(expr, row) for _, expr in node.group_keys]
                key = self.b.emit("tuple_new", key_atoms, hint="key")
            # ``count(*)`` counts the constant 1, which is never NULL
            values = [Const(1) if spec.expr is None else self.scalars.compile(spec.expr, row)
                      for spec in node.aggregates]
            group = self.b.emit("hashmap_agg_group", [table, key], attrs=group_attrs,
                                hint="acc")
            slot = (table, key) if in_slot else None
            for spec, start, value in zip(node.aggregates, starts, values):
                self._fold(spec.kind, value, group, start, slot)

        self.produce(node.child, fold)

        with b.new_block(params=2, hints=["gk", "acc"]) as (group_block, (key_sym, group)):
            row_values: Dict[str, Atom] = {}
            if len(node.group_keys) == 1:
                row_values[node.group_keys[0][0]] = key_sym
            else:
                for index, (name, _) in enumerate(node.group_keys):
                    row_values[name] = b.emit("tuple_get", [key_sym], attrs={"index": index},
                                              hint=name[:10])
            for spec, start in zip(node.aggregates, starts):
                row_values[spec.name] = group if in_slot else \
                    self._finalise(spec.kind, group, start, spec.name[:10])
            out_row = RowVals.scalars(row_values)
            if node.having is not None:
                cond = self.scalars.compile(node.having, out_row)
                b.if_(cond, lambda: consume(out_row))
            else:
                consume(out_row)
        b.emit("hashmap_agg_foreach", [table], blocks=[group_block])

    def _fold(self, kind: str, value: Atom, group: Sym, start: int,
              slot: Optional[Tuple[Sym, Atom]] = None) -> None:
        """Fold one value into the accumulator at ``group[start]`` — or, with
        ``slot=(table, key)``, into the accumulator value ``group`` that the
        table slot holds, writing the new value back there: the kind's fold
        in :mod:`repro.dsl.aggregates` over a one-value run, as statements.
        A value that may be NULL is folded under a ``value is not None``
        guard, which folding drops where the column's statistics show no NULL."""
        b = self.b

        def read(offset: int = 0) -> Atom:
            if slot is not None:
                return group
            return b.emit("array_get", [group, Const(start + offset)])

        def write(new: Atom, offset: int = 0) -> None:
            if slot is not None:
                b.emit("hashmap_agg_set", [*slot, new])
            else:
                b.emit("array_set", [group, Const(start + offset), new])

        def add(amount: Atom, offset: int = 0) -> None:
            write(b.emit("add", [read(offset), amount]), offset)

        def update() -> None:
            if kind == "count":
                add(Const(1))
            elif kind in ("sum", "avg"):
                add(value)
                if kind == "avg":
                    add(Const(1), offset=1)
            elif kind == "count_distinct":
                b.emit("set_add", [read(), value])
            else:  # min / max
                current = read()

                def compare() -> None:
                    better = b.emit("lt" if kind == "min" else "gt", [value, current])
                    b.if_(better, lambda: write(value))

                # a None accumulator is replaced without evaluating ``v < None``
                b.if_(b.emit("eq", [current, Const(None)]), lambda: write(value), compare)

        if isinstance(value, Const) and value.value is not None:
            update()
        else:
            b.if_(b.emit("ne", [value, Const(None)]), update)

    def _finalise(self, kind: str, record: Sym, start: int, hint: str) -> Atom:
        """One group's value of an aggregate, the kind's finish as statements:
        ``avg`` divided out (``None`` over no value), ``count_distinct`` the
        size of its set."""
        b = self.b
        value = b.emit("array_get", [record, Const(start)], hint=hint)
        if kind == "count_distinct":
            return b.emit("set_size", [value], hint=hint)
        if kind == "avg":
            count = b.emit("array_get", [record, Const(start + 1)], hint="count")
            return b.if_(count, lambda: b.emit("div", [value, count]))
        return value

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
