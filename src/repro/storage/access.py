"""The catalog-resident physical access layer (paper Section B.1).

The paper's biggest TPC-H wins come from work "moved to loading time":
primary-key arrays that turn hash probes into array indexing, partitioned
join structures, and string dictionaries.  The compiled DSL stacks reproduce
those at the IR level; this module gives the vectorized engine the same
load-time structures.  The Volcano interpreter reads none of them: it is the
reference the other engines are graded against, so it runs every plan on
column values only.  The structures:

* **PK direct arrays** (:meth:`AccessLayer.key_index`) — for a unique, dense
  single-column key (``ColumnStatistics.is_dense_key``), a plain list mapping
  ``value - offset`` to the row position: the build of an FK→PK join, so the
  join probes by array indexing instead of building a per-query hash table.
  Any other key has none, and its joins build per query in every engine.
* **Partition indices** (:meth:`AccessLayer.partition`) — for a dense
  *multi-valued* key (a foreign key, typically), ``slots[value - offset]`` is
  the ascending list of row positions holding that value: the hash-join
  build over a base table, done once per loaded table instead of once per
  request.  Positions, not copied records, so one index per ``(table,
  column)`` serves every payload set of every query; the compiled stacks
  fetch it in ``prepare`` and read payload columns through it.
* **Zone maps + candidate lists**
  (:meth:`AccessLayer.chunk_ranges`, :meth:`AccessLayer.prune_candidates`) —
  range predicates on a column skip whole chunks via the load-time zone maps
  (:class:`repro.storage.statistics.ColumnZoneMap`), a column stored sorted
  clips the row range by bisection, and a selective filter on an unclustered
  column becomes a candidate list by one filtered pass over the admitted
  chunks.  Only the list is kept (memoized by
  :meth:`AccessLayer.pruned_indices`); no sorted copy or permutation of a
  column is.
* **Dictionary-encoded strings** (:meth:`AccessLayer.dictionary`,
  :func:`rewrite_string_predicates`) — a sorted dictionary plus a per-row
  code column; string equality, ``IN`` lists and ``LIKE 'prefix%'`` become
  integer comparisons (a prefix is a contiguous code range).

Every structure is built **lazily, once per catalog** and memoized on the
:class:`AccessLayer`, which itself lives on the catalog object
(:meth:`AccessLayer.for_catalog`) — so repeated queries, and repeated
``measure()`` calls of the benchmark harness, reuse the same indices.
``build_counts`` records every construction, which is how the benchmarks
prove the build-once claim.

What the structures cost in memory (Figure 8's side of the trade) is kept
to what they add to the catalog:

* **Positions are pooled.**  A row position is table-agnostic and immutable,
  so the layer holds one ``int`` object per position (``pool[i] is i``, grown
  to the largest table built so far) and every builder draws from it: a
  direct array, a partition slot and a memoized candidate list that mention
  row 40 000 all point at the same object, and a mention costs one 8-byte
  pointer instead of a boxed ``int``.
* **Clustered partitions are ranges.**  Over a column stored in ascending
  order the rows of one key are contiguous, so its slots are immutable
  ``range`` objects found by one bisect per key; consumers only iterate,
  ``len()`` and truth-test a slot, which a ``range`` and a ``list`` do alike.
Everything stays a plain ``list`` or ``range``; no typed buffer is involved.

The catalog owns the layer and the layer points back only weakly, so the
lifetime of every structure here — and of the planned trees and compiled
queries in :attr:`AccessLayer.derived` — is exactly the catalog's: when the
last reference to a catalog goes, all of it is freed by reference counting,
with no GC pass.  The other side of that coin: keep the catalog, not just
its layer.
"""
from __future__ import annotations

import threading
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..concurrency import guarded_by
from ..dsl import expr as E
from ..robustness.faults import fault_point
from .derived import PROBATION, DerivedCache

#: the largest code point: a prefix ending in it has no one-character successor
_MAX_CHAR = "\U0010ffff"

#: suffix appended to a column name for its dictionary-code companion column
DICT_CODE_SUFFIX = "#dict"

#: string dictionaries are only built while they stay small, whatever the
#: share of distinct values (near-unique columns get none either:
#: ``ColumnStatistics.is_near_unique``)
_MAX_DICTIONARY_SIZE = 4096

#: a candidate list only pays off when the filters keep at most this fraction
#: of the table (gathering candidate positions must stay cheaper than the
#: predicate evaluations it avoids)
_MAX_PRUNE_FRACTION = 0.5

#: the gate reads every ``_SAMPLE_STRIDE``-th row of the span before any list
#: is built, so an unselective filter costs a 1/32 sample, not a thrown-away
#: pass; a span too short for ``_SAMPLE_STRIDE`` samples is passed whole
_SAMPLE_STRIDE = 32


class AccessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Load-time structures
# ---------------------------------------------------------------------------
@dataclass
class DirectArray:
    """A dense key index: ``slots[value - offset]`` is the row position.

    Built only for columns that are unique *and* dense
    (:meth:`~repro.storage.statistics.ColumnStatistics.is_dense_key`), the
    paper's "aggressive system memory trade-off to hold a sparse array".
    """

    table: str
    column: str
    offset: int
    slots: List[Optional[int]]

    def lookup(self, value: Any) -> Optional[int]:
        if type(value) is not int:
            # match hash-table key semantics: 3.0 == 3, True == 1
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            elif isinstance(value, bool):
                value = int(value)
            else:
                return None
        index = value - self.offset
        if 0 <= index < len(self.slots):
            return self.slots[index]
        return None


@dataclass
class PartitionIndex:
    """A dense multi-valued key index: ``slots[value - offset]`` is the
    ascending sequence of row positions holding that key (empty when none
    does): a ``range`` per key over a column stored in ascending order, a
    list per key otherwise.

    The catalog-resident form of a hash-join build over a base table
    (Section B.1's data-structure partitioning): positions instead of copied
    records, so one index serves every payload set of every query.  The
    domain is that of the key a foreign key references — one slot per key of
    the referenced primary key — so a probe drawn from the same domain needs
    no bounds check.  Shared and read-only: consumers never write to a slot.
    """

    table: str
    column: str
    offset: int
    slots: List[Sequence[int]]


@dataclass
class StringDictionary:
    """A sorted string dictionary plus the per-row code column.

    Codes are assigned in sorted value order, so string *order* is preserved:
    equality is code equality and a prefix match is one contiguous code range.
    """

    table: str
    column: str
    values: List[str]
    codes: List[int]
    code_of: Dict[str, int] = field(repr=False, default_factory=dict)

    def code(self, value: str) -> Optional[int]:
        return self.code_of.get(value)

    def prefix_code_range(self, prefix: str) -> Tuple[int, int]:
        """Codes ``[lo, hi)`` whose strings start with ``prefix``."""
        lo = bisect_left(self.values, prefix)
        successor = _prefix_successor(prefix)
        hi = (len(self.values) if successor is None
              else bisect_left(self.values, successor))
        return lo, hi


def _prefix_successor(prefix: str) -> Optional[str]:
    """The least string above every string that starts with ``prefix``: the
    strict upper bound of the ``LIKE 'prefix%'`` value range, or ``None``
    when there is none (``prefix`` is empty or all U+10FFFF).  Trailing
    U+10FFFF characters are dropped and the last code point left is
    incremented; a string starting with ``prefix`` shares the stripped
    prefix up to that point and has the smaller character there."""
    stripped = prefix.rstrip(_MAX_CHAR)
    if not stripped:
        return None
    return stripped[:-1] + chr(ord(stripped[-1]) + 1)


# ---------------------------------------------------------------------------
# Zone filters: the prunable part of a scan predicate
# ---------------------------------------------------------------------------
#: one prunable conjunct: ``(column, op, literal)`` with the column on the left
ZoneFilter = Tuple[str, str, Any]


@dataclass
class _Bounds:
    """Combined lower/upper bound of one column: ``(value, is_strict)``."""

    lo: Optional[Tuple[Any, bool]] = None
    hi: Optional[Tuple[Any, bool]] = None

    def tighten(self, op: str, value: Any) -> None:
        if op in (">", ">="):
            candidate = (value, op == ">")
            if self.lo is None or _tighter_lo(candidate, self.lo):
                self.lo = candidate
        elif op in ("<", "<="):
            candidate = (value, op == "<")
            if self.hi is None or _tighter_hi(candidate, self.hi):
                self.hi = candidate
        elif op == "==":
            self.tighten(">=", value)
            self.tighten("<=", value)
        elif op == "prefix":
            self.tighten(">=", value)
            successor = _prefix_successor(value)
            if successor is not None:
                self.tighten("<", successor)
        else:  # pragma: no cover - guarded by extract_zone_filters
            raise AccessError(f"unknown zone-filter operator {op!r}")

    def admits_chunk(self, chunk_min: Any, chunk_max: Any) -> bool:
        """Whether any value in ``[chunk_min, chunk_max]`` can satisfy the bounds."""
        if self.lo is not None:
            value, strict = self.lo
            if chunk_max < value or (strict and chunk_max <= value):
                return False
        if self.hi is not None:
            value, strict = self.hi
            if chunk_min > value or (strict and chunk_min >= value):
                return False
        return True


def _tighter_lo(candidate: Tuple[Any, bool], current: Tuple[Any, bool]) -> bool:
    if candidate[0] != current[0]:
        return candidate[0] > current[0]
    return candidate[1] and not current[1]


def _tighter_hi(candidate: Tuple[Any, bool], current: Tuple[Any, bool]) -> bool:
    if candidate[0] != current[0]:
        return candidate[0] < current[0]
    return candidate[1] and not current[1]


def extract_zone_filters(predicate: E.Expr,
                         columns: Iterable[str]) -> Tuple[ZoneFilter, ...]:
    """The prunable conjuncts of a scan predicate.

    A conjunct is prunable when it compares one bare (unsided) column of the
    scanned table against a comparable literal: ``col OP literal`` for the
    inequality/equality operators, or ``LIKE 'prefix%'``.  Everything else —
    column/column comparisons, disjunctions, arithmetic — stays behind in the
    residual predicate the engines still evaluate on surviving rows.
    """
    available = set(columns)
    filters: List[ZoneFilter] = []
    for conjunct in _conjuncts(predicate):
        extracted = _as_zone_filter(conjunct, available)
        if extracted is not None:
            filters.append(extracted)
    return tuple(filters)


def _conjuncts(expr: E.Expr) -> List[E.Expr]:
    if isinstance(expr, E.BinOp) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


_FLIPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


def _as_zone_filter(conjunct: E.Expr, columns: set) -> Optional[ZoneFilter]:
    if isinstance(conjunct, E.Like):
        kind, needle = conjunct.kind()
        operand = conjunct.operand
        if ("%" not in needle and isinstance(operand, E.Col)
                and operand.side is None and operand.name in columns):
            if kind == "prefix":
                return (operand.name, "prefix", needle)
            if kind == "equals":
                return (operand.name, "==", needle)
        return None
    if not isinstance(conjunct, E.BinOp) or conjunct.op not in _FLIPPED_OP:
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(right, E.Col) and isinstance(left, E.Lit):
        left, right, op = right, left, _FLIPPED_OP[op]
    if not (isinstance(left, E.Col) and isinstance(right, E.Lit)):
        return None
    if left.side is not None or left.name not in columns:
        return None
    value = right.value
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    return (left.name, op, value)


def _bounds_per_column(filters: Sequence[ZoneFilter]) -> Dict[str, _Bounds]:
    per_column: Dict[str, _Bounds] = {}
    for column, op, value in filters:
        per_column.setdefault(column, _Bounds()).tighten(op, value)
    return per_column


def _clip(values: Sequence[Any], bounds: _Bounds) -> Tuple[int, int]:
    """The row range ``bounds`` keeps of a column stored in ascending order."""
    start, stop = 0, len(values)
    if bounds.lo is not None:
        value, strict = bounds.lo
        start = (bisect_right if strict else bisect_left)(values, value)
    if bounds.hi is not None:
        value, strict = bounds.hi
        stop = (bisect_left if strict else bisect_right)(values, value)
    return start, max(start, stop)


#: ``(values, low, high, strict_low, strict_high)``: a row passes when
#: ``low < values[row] < high``, a non-strict side reading ``<=``
_RowTest = Tuple[Sequence[Any], Any, Any, bool, bool]


def _row_test(values: Sequence[Any], bounds: _Bounds, stats) -> Optional[_RowTest]:
    """The test of one zoned column, or ``None`` when no row can pass.  A side
    the filters leave open is closed by the column's own min or max, so every
    test is one chained comparison (an equality, one ``==``).  Raises
    ``TypeError`` for a literal the column's values cannot be compared with."""
    low, strict_low = bounds.lo or (stats.min_value, False)
    high, strict_high = bounds.hi or (stats.max_value, False)
    # ``|`` compares both literals with a column value, where ``or`` would
    # leave an incomparable upper bound to raise halfway through a pass
    if (low > stats.max_value) | (high < stats.min_value):
        return None
    return values, low, high, strict_low, strict_high


def _passing(positions: Iterable[int], tests: Sequence[_RowTest]) -> List[int]:
    """The ``positions`` whose row passes every test, in order: one plain
    comparison comprehension per test, each over the survivors of the last."""
    for values, low, high, strict_low, strict_high in tests:
        if strict_low and strict_high:
            positions = [p for p in positions if low < values[p] < high]
        elif strict_low:
            positions = [p for p in positions if low < values[p] <= high]
        elif strict_high:
            positions = [p for p in positions if low <= values[p] < high]
        elif low == high:  # an equality: one comparison, not two
            positions = [p for p in positions if values[p] == low]
        else:
            positions = [p for p in positions if low <= values[p] <= high]
    return positions  # a list: ``tests`` is never empty


# ---------------------------------------------------------------------------
# Dictionary predicate rewriting (vectorized engine)
# ---------------------------------------------------------------------------
def rewrite_string_predicates(predicate: E.Expr, table: str, schema_columns,
                              layer: "AccessLayer"
                              ) -> Tuple[E.Expr, Dict[str, List[int]]]:
    """Rewrite string comparisons over a base-table scan to code comparisons.

    Returns the rewritten predicate plus the extra code columns it references
    (``{column + '#dict': codes}``).  When nothing rewrites, the original
    predicate comes back with an empty column map.  Rewrites are exact:

    * ``col == 'x'`` / ``col != 'x'`` — compare against the code of ``'x'``
      (a value absent from the dictionary folds to ``False`` / ``True``),
    * ``col IN (...)`` — an ``IN`` over the codes of the present values,
    * ``LIKE 'p%'`` (single trailing wildcard) — one code-range test, because
      codes are assigned in sorted string order.
    """
    rewriter = _DictionaryRewriter(table, schema_columns, layer)
    rewritten = rewriter.rewrite(predicate)
    # `extra` can be empty even when something rewrote (a comparison against
    # a value absent from the dictionary folds straight to a literal)
    if rewritten is predicate:
        return predicate, {}
    return rewritten, rewriter.extra


class _DictionaryRewriter:
    """State of one :func:`rewrite_string_predicates` run.

    A class with a recursive method, not nested closures: a nested function
    that calls itself is a reference cycle through its own closure cell, and
    that one pinned ``layer`` (and through it every structure of a dropped
    catalog's access layer) until a GC pass.
    """

    def __init__(self, table: str, schema_columns, layer: "AccessLayer") -> None:
        self.table = table
        self.layer = layer
        self.string_columns = {column.name for column in schema_columns
                               if column.is_string}
        #: the code columns the rewritten predicate references
        self.extra: Dict[str, List[int]] = {}

    def dictionary_for(self, name: str) -> Optional[StringDictionary]:
        if name not in self.string_columns:
            return None
        return self.layer.dictionary(self.table, name)

    def code_column(self, dictionary: StringDictionary) -> E.Col:
        name = dictionary.column + DICT_CODE_SUFFIX
        self.extra[name] = dictionary.codes
        return E.Col(name)

    def rewrite(self, node: E.Expr) -> E.Expr:
        if isinstance(node, E.BinOp):
            if node.op in ("and", "or"):
                left, right = self.rewrite(node.left), self.rewrite(node.right)
                if left is node.left and right is node.right:
                    return node
                return E.BinOp(node.op, left, right)
            if node.op in ("==", "!="):
                column, literal = None, None
                if isinstance(node.left, E.Col) and isinstance(node.right, E.Lit):
                    column, literal = node.left, node.right.value
                elif isinstance(node.right, E.Col) and isinstance(node.left, E.Lit):
                    column, literal = node.right, node.left.value
                if (column is None or column.side is not None
                        or not isinstance(literal, str)):
                    return node
                dictionary = self.dictionary_for(column.name)
                if dictionary is None:
                    return node
                code = dictionary.code(literal)
                if code is None:
                    return E.Lit(node.op == "!=")
                return E.BinOp(node.op, self.code_column(dictionary), E.Lit(code))
            return node
        if isinstance(node, E.UnaryOp) and node.op == "not":
            operand = self.rewrite(node.operand)
            return node if operand is node.operand else E.UnaryOp("not", operand)
        if isinstance(node, E.InList):
            operand = node.operand
            if (not isinstance(operand, E.Col) or operand.side is not None
                    or not all(isinstance(v, str) for v in node.values)):
                return node
            dictionary = self.dictionary_for(operand.name)
            if dictionary is None:
                return node
            codes = [dictionary.code(v) for v in node.values]
            present = tuple(c for c in codes if c is not None)
            if not present:
                return E.Lit(False)
            return E.InList(self.code_column(dictionary), present)
        if isinstance(node, E.Like):
            kind, needle = node.kind()
            operand = node.operand
            if ("%" in needle or not isinstance(operand, E.Col)
                    or operand.side is not None):
                return node
            dictionary = self.dictionary_for(operand.name)
            if dictionary is None:
                return node
            if kind == "equals":
                code = dictionary.code(needle)
                if code is None:
                    return E.Lit(False)
                return E.BinOp("==", self.code_column(dictionary), E.Lit(code))
            if kind == "prefix":
                lo, hi = dictionary.prefix_code_range(needle)
                if lo >= hi:
                    return E.Lit(False)
                codes = self.code_column(dictionary)
                return E.BinOp("and", E.BinOp(">=", codes, E.Lit(lo)),
                               E.BinOp("<", codes, E.Lit(hi)))
            return node
        return node


# ---------------------------------------------------------------------------
# The access layer itself
# ---------------------------------------------------------------------------
class AccessLayer:
    """Lazily built, catalog-resident physical access structures.

    One instance per catalog (:meth:`for_catalog`); every structure is built
    at most once and shared by all engines and all queries against that
    catalog — the "moved to loading time" amortization of the paper.
    """

    #: the memoized candidate lists of one table, both segments together,
    #: hold at most this many times its row count in positions (a ``range``
    #: holds none; every entry is charged at least one); the oldest go first
    _CANDIDATE_POSITION_BUDGET = 4

    #: serialises first-use layer creation: two threads racing
    #: :meth:`for_catalog` must agree on one layer (and therefore one
    #: generation counter) per catalog
    _CREATE_LOCK = threading.Lock()

    def __init__(self, catalog) -> None:
        #: weak: the catalog owns the layer (``catalog._access_layer``), so a
        #: strong back-pointer would be a cycle, and a dropped catalog — its
        #: columns, every structure below and the whole derived cache — would
        #: wait for a generation-2 GC pass instead of being freed at once
        # concurrency: init-only
        self._catalog_ref = weakref.ref(catalog)
        #: guards every memo below: pool workers share one layer per catalog,
        #: and the check-build-store sequences must be atomic or a thundering
        #: herd builds the same index many times (and tears dict state).
        #: Not reentrant: no method that holds it calls one that takes it
        self._lock = threading.Lock()
        #: the position pool: ``_positions[i] is`` the one ``int`` object for
        #: row position ``i`` that every structure below mentions.  Grown to
        #: the largest table built so far and never invalidated — a position
        #: means the same in every table and every load
        # concurrency: guarded-by(_lock)
        self._positions: List[int] = []
        #: ``(kind, table, column)`` -> structure (``None``: cannot be built),
        #: kinds as in ``build_counts``
        # concurrency: guarded-by(_lock)
        self._structures: Dict[Tuple[str, str, str], Optional[object]] = {}
        #: table -> its memoized candidate lists
        # concurrency: guarded-by(_lock)
        self._candidates: Dict[str, _CandidateLists] = {}
        #: ``(kind, table, column) -> times built`` — the build-once proof
        # concurrency: guarded-by(_lock)
        self.build_counts: Dict[Tuple[str, str, str], int] = {}
        #: bumped on every invalidation: which load of the data is live
        # concurrency: guarded-by(_lock)
        self.generation: int = 0
        #: everything derived from the loaded data by the layers above
        #: (planned trees, compiled queries); emptied with every bump, so an
        #: entry can never assume statistics of — or close over structures
        #: from — before a table reload
        # concurrency: synchronized
        self.derived = DerivedCache()

    @property
    def catalog(self):
        """The owning catalog; a layer held past its catalog is unusable."""
        catalog = self._catalog_ref()
        if catalog is None:
            raise AccessError("the catalog of this access layer is gone")
        return catalog

    @classmethod
    def for_catalog(cls, catalog) -> "AccessLayer":
        """The shared access layer of a catalog (created on first use).

        Stored on the catalog object itself and pointing back only weakly,
        so its lifetime — and that of every memoized index, planned tree and
        compiled query — is exactly the catalog's lifetime: the last
        reference to the catalog going away frees all of it, with no GC pass.
        """
        layer = getattr(catalog, "_access_layer", None)
        if layer is None:
            with cls._CREATE_LOCK:
                layer = getattr(catalog, "_access_layer", None)
                if layer is None:
                    layer = cls(catalog)
                    catalog._access_layer = layer
        return layer

    def invalidate_table(self, table: str) -> None:
        """Drop every memoized structure of one table.

        Called by :meth:`repro.storage.catalog.Catalog.register` when a
        table's data is (re)loaded: indices, dictionaries and cached
        candidate lists built against the old columns would otherwise
        silently serve stale row positions.  ``build_counts`` is kept — it
        counts constructions, and a legitimate rebuild after a reload is
        exactly what it should record.  The generation counter is bumped
        and, in the same critical section, the derived cache is emptied:
        this is the one place that decides generation-derived state is stale.
        """
        with self._lock:
            self.generation += 1
            self.derived.invalidate()
            for key in [k for k in self._structures if k[1] == table]:
                del self._structures[key]
            self._candidates.pop(table, None)

    # ------------------------------------------------------------------
    def _column_stats(self, table: str, column: str):
        statistics = getattr(self.catalog, "statistics", None)
        if statistics is None or not statistics.has_column(table, column):
            return None
        return statistics.column(table, column)

    @guarded_by("_lock")
    def _count_build(self, kind: str, table: str, column: str) -> None:
        key = (kind, table, column)
        self.build_counts[key] = self.build_counts.get(key, 0) + 1

    @guarded_by("_lock")
    def _structure(self, kind: str, table: str, column: str,
                   build: Callable[[str, str], Optional[object]]):
        """The memoized ``kind`` structure of ``table.column``, built on
        first use (a ``None`` — cannot be built — is remembered too)."""
        key = (kind, table, column)
        if key not in self._structures:
            self._structures[key] = build(table, column)
        return self._structures[key]

    @guarded_by("_lock")
    def _pool(self, num_rows: int) -> List[int]:
        """The position pool, grown to cover ``num_rows`` positions."""
        pool = self._positions
        pool.extend(range(len(pool), num_rows))
        return pool

    # ------------------------------------------------------------------
    # PK direct arrays
    # ------------------------------------------------------------------
    def key_index(self, table: str, column: str) -> Optional[DirectArray]:
        """The :class:`DirectArray` of ``table.column``, or ``None`` unless
        the key is unique and dense (``ColumnStatistics.is_dense_key``); the
        engines then run the per-query hash build."""
        fault_point("access.key_index", table=table, column=column)
        with self._lock:
            return self._structure("key_index", table, column,
                                   self._build_key_index)

    @guarded_by("_lock")
    def _build_key_index(self, table: str, column: str) -> Optional[DirectArray]:
        stats = self._column_stats(table, column)
        if stats is None or not (stats.is_unique and stats.is_dense_key()):
            return None
        values = self.catalog.column(table, column)
        self._count_build("key_index", table, column)
        offset = stats.min_value
        slots: List[Optional[int]] = [None] * (stats.max_value - offset + 1)
        for position, value in zip(self._pool(len(values)), values):
            slot = value - offset
            if slots[slot] is not None:
                return None  # statistics lied: duplicate key
            slots[slot] = position
        return DirectArray(table, column, offset, slots)

    # ------------------------------------------------------------------
    # Partition indices (catalog-resident hash-join builds)
    # ------------------------------------------------------------------
    def partition_domain(self, table: str, column: str
                         ) -> Optional[Tuple[int, int]]:
        """The inclusive key range ``(lo, hi)`` a partition of ``table.column``
        covers, or ``None`` when the column cannot be partitioned.

        Decided from load-time statistics alone, without building anything:
        the column must hold non-null integers, and its *domain* — the key a
        foreign key references, else the column itself — must be a dense key
        (``ColumnStatistics.is_dense_key``) enclosing every stored value.
        """
        stats = self._column_stats(table, column)
        if stats is None or stats.num_nulls or not stats.is_dense_key():
            return None
        domain = stats
        foreign_key = self.catalog.schema.table(table).column(column).foreign_key
        if foreign_key is not None:
            domain = self._column_stats(foreign_key.table, foreign_key.column)
            if domain is None or not domain.is_dense_key():
                return None
        lo, hi = domain.min_value, domain.max_value
        if stats.min_value < lo or stats.max_value > hi:
            return None  # a dangling reference: the probe could not elide its bounds check
        return int(lo), int(hi)

    def partition(self, table: str, column: str) -> Optional[PartitionIndex]:
        """The partition index of ``table.column`` (built once), or ``None``.

        One structure per ``(table, column)`` serves every query, request and
        thread, whatever payload columns they read; the number of live
        partitions is bounded by the schema.  A memoized partition whose key
        domain has since moved (the *referenced* table was reloaded with a
        different key range) is rebuilt here rather than served.
        """
        fault_point("access.partition", table=table, column=column)
        key = ("partition", table, column)
        with self._lock:
            domain = self.partition_domain(table, column)
            if domain is None:
                return None
            lo, hi = domain
            cached = self._structures.get(key)
            if cached is not None and (cached.offset != lo
                                       or len(cached.slots) != hi - lo + 1):
                del self._structures[key]
            return self._structure("partition", table, column,
                                   self._build_partition)

    @guarded_by("_lock")
    def _build_partition(self, table: str, column: str) -> PartitionIndex:
        lo, hi = self.partition_domain(table, column)
        values = self.catalog.column(table, column)
        self._count_build("partition", table, column)
        slots: List[Sequence[int]]
        if self._column_stats(table, column).sorted_ascending:
            # clustered: the rows of one key are one run, found by bisection.
            # A run's bounds are positions too (the end of the table
            # included), so a slot adds nothing but its ``range`` header
            pool = self._pool(len(values) + 1)
            slots = []
            start = pool[0]
            for key in range(lo, hi + 1):
                stop = pool[bisect_right(values, key, start)]
                slots.append(range(start, stop))
                start = stop
        else:
            slots = [[] for _ in range(hi - lo + 1)]
            for position, value in zip(self._pool(len(values)), values):
                slots[value - lo].append(position)
        return PartitionIndex(table, column, lo, slots)

    # ------------------------------------------------------------------
    # String dictionaries
    # ------------------------------------------------------------------
    def dictionary(self, table: str, column: str) -> Optional[StringDictionary]:
        """The string dictionary of ``table.column`` (built once), or ``None``
        when the column is not a reasonably-repetitive string column."""
        with self._lock:
            return self._structure("dictionary", table, column,
                                   self._build_dictionary)

    @guarded_by("_lock")
    def _build_dictionary(self, table: str, column: str) -> Optional[StringDictionary]:
        stats = self._column_stats(table, column)
        if stats is None or stats.num_rows == 0:
            return None
        if stats.num_distinct > _MAX_DICTIONARY_SIZE or stats.is_near_unique:
            return None
        # the load pass answered this: min() over a column raises for a None
        # or a mix of types, leaving no zone map, so a str minimum means
        # every value is a str
        if stats.zone_map is None or not isinstance(stats.min_value, str):
            return None
        values = self.catalog.column(table, column)
        self._count_build("dictionary", table, column)
        ordered = sorted(set(values))
        code_of = {value: code for code, value in enumerate(ordered)}
        codes = [code_of[value] for value in values]
        return StringDictionary(table, column, ordered, codes, code_of)

    # ------------------------------------------------------------------
    # Partition pruning
    # ------------------------------------------------------------------
    def prune_candidates(self, table: str, filters: Sequence[ZoneFilter]):
        """Candidate base-row positions under ``filters``, in ascending row
        order, or ``None`` when the zoned columns do not prune well enough.

        Exactly the rows that pass the filters of every zoned column (one
        whose values are mutually comparable; a literal they cannot be
        compared with is skipped): a column stored sorted clips the row
        range by bisection, and the rows left in it, read only in the chunks
        the zone maps admit, get one filtered pass over the other columns.
        A ``range`` when nothing but the clip prunes, else a list drawn from
        the position pool.  The :data:`_MAX_PRUNE_FRACTION` gate is read off
        a sample of the same test before any list is built; the caller still
        evaluates the full predicate on the survivors.
        """
        with self._lock:
            return self._prune_candidates(table, filters)

    @guarded_by("_lock")
    def _prune_candidates(self, table: str, filters: Sequence[ZoneFilter]):
        num_rows = self.catalog.size(table)
        if num_rows == 0:
            return None
        lo, hi, zoned = 0, num_rows, []
        tests: List[_RowTest] = []
        for column, bounds in _bounds_per_column(filters).items():
            stats = self._column_stats(table, column)
            if stats is None or stats.zone_map is None:
                continue  # no zone map means the values are not comparable
            values = self.catalog.column(table, column)
            try:
                if stats.sorted_ascending:
                    start, stop = _clip(values, bounds)
                    lo, hi = max(lo, start), min(hi, stop)
                else:
                    test = _row_test(values, bounds, stats)
                    if test is None:
                        return []
                    tests.append(test)
            except TypeError:
                continue  # filter literal not comparable to the column values
            zoned.append(column)
        if not zoned:
            return None
        span = max(0, hi - lo)
        if not tests:
            return None if span > _MAX_PRUNE_FRACTION * num_rows else range(lo, lo + span)
        pool = self._pool(num_rows)
        # drawn from the pool, so a span passed whole is already the list
        stride = _SAMPLE_STRIDE if span >= _SAMPLE_STRIDE ** 2 else 1
        sample = pool[lo:lo + span:stride]
        passing = _passing(sample, tests)
        if len(passing) * span > _MAX_PRUNE_FRACTION * num_rows * len(sample):
            return None
        if stride > 1:
            admitted = self.chunk_ranges(
                table, [entry for entry in filters if entry[0] in zoned])
            passing = _passing(chain.from_iterable(
                pool[max(start, lo):min(stop, hi)] for start, stop in admitted), tests)
        return range(lo, lo + span) if len(passing) == span else passing

    def chunk_ranges(self, table: str,
                     filters: Sequence[ZoneFilter]) -> List[Tuple[int, int]]:
        """Row ranges whose zone maps admit ``filters`` (adjacent chunks are
        merged); ``[(0, num_rows)]`` when nothing can be skipped."""
        num_rows = self.catalog.size(table)
        per_column = _bounds_per_column(filters)
        zoned = []
        for column, bounds in per_column.items():
            stats = self._column_stats(table, column)
            if stats is not None and stats.zone_map is not None:
                zoned.append((stats.zone_map, bounds))
        if not zoned or num_rows == 0:
            return [(0, num_rows)]
        ranges: List[Tuple[int, int]] = []
        num_chunks = zoned[0][0].num_chunks
        for chunk in range(num_chunks):
            admitted = True
            for zone_map, bounds in zoned:
                try:
                    if not bounds.admits_chunk(zone_map.mins[chunk],
                                               zone_map.maxs[chunk]):
                        admitted = False
                        break
                except TypeError:
                    continue  # incomparable literal: the zone cannot reject
            if not admitted:
                continue
            start, stop = zoned[0][0].chunk_span(chunk, num_rows)
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], stop)
            else:
                ranges.append((start, stop))
        return ranges

    def pruned_indices(self, table: str, filters: Sequence[ZoneFilter]):
        """The best available candidate-row sequence for a pruned scan:
        the candidate list when selective, else the zone-map-surviving
        chunk ranges, else every row — ascending and reiterable.

        Memoized per ``(table, filters)`` once asked for twice, so the
        repeated-query regime pays the filtered pass once and a plan that
        never repeats leaves no list resident: a first ask's list waits in
        probation (:data:`~repro.storage.derived.PROBATION` lists per table,
        oldest out first) and the second ask promotes it.  A warm query asks
        at warm-up and again at its first request's ``prepare``."""
        fault_point("access.zone_map", table=table)
        key = tuple(filters)
        with self._lock:
            lists = self._candidates.setdefault(table, _CandidateLists())
            cached = lists.resident.get(key)
            if cached is None:
                cached = lists.probation.pop(key, None)
                if cached is not None:
                    lists.resident[key] = cached
                else:
                    cached = self._compute_pruned_indices(table, filters)
                    self._make_room(lists, table, _positions_held(cached))
                    lists.probation[key] = cached
            return cached

    @guarded_by("_lock")
    def _make_room(self, lists: "_CandidateLists", table: str,
                   needed: int) -> None:
        """Shed the oldest candidate lists of ``table``, probation's first,
        until probation has a free slot and ``needed`` more positions fit
        the table's budget."""
        probation = lists.probation
        while len(probation) >= PROBATION:
            probation.pop(next(iter(probation)))
        room = self._CANDIDATE_POSITION_BUDGET * self.catalog.size(table) - needed
        held = sum(map(_positions_held, chain(probation.values(),
                                              lists.resident.values())))
        for segment in (probation, lists.resident):
            while held > room and segment:
                held -= _positions_held(segment.pop(next(iter(segment))))

    @guarded_by("_lock")
    def _compute_pruned_indices(self, table: str, filters: Sequence[ZoneFilter]):
        candidates = self._prune_candidates(table, filters)
        if candidates is not None:
            return candidates
        num_rows = self.catalog.size(table)
        ranges = self.chunk_ranges(table, filters)
        if ranges == [(0, num_rows)]:
            return range(num_rows)
        pool = self._pool(num_rows)
        return list(chain.from_iterable(pool[start:stop] for start, stop in ranges))


@dataclass
class _CandidateLists:
    """The memoized candidate lists of one table: zone filters -> candidate
    positions, oldest first, in two segments — lists asked for once wait in
    ``probation``, lists asked for again are ``resident``."""

    probation: Dict[Tuple[ZoneFilter, ...], Sequence[int]] = field(default_factory=dict)
    resident: Dict[Tuple[ZoneFilter, ...], Sequence[int]] = field(default_factory=dict)


def _positions_held(candidates: Sequence[int]) -> int:
    """What a memoized candidate sequence is charged against the budget:
    the positions it holds (a ``range`` holds none), and at least one so
    that the number of entries is bounded too."""
    return 1 if isinstance(candidates, range) else max(1, len(candidates))
