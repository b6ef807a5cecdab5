"""Data statistics used for worst-case size analysis (paper Section D.1).

The memory-allocation hoisting and data-structure initialisation hoisting
transformations need, at compile time, worst-case estimates of cardinalities
and key ranges: how large to pre-allocate pools, whether a key column is dense
enough to be backed by a direct array, how many distinct groups an aggregation
may produce.  :meth:`repro.storage.catalog.Catalog.register` calls
:func:`compute_table_statistics` for every loaded table, which reads no row:
a column's load pass (min/max, NULL count, sortedness, zone map) and its
distinct count are each taken on their first read, so only the columns a plan
touches are ever scanned (:class:`ColumnStatistics`).

Beyond the scalar summaries, every column also gets a **zone map**
(:class:`ColumnZoneMap`): per-chunk minima and maxima over fixed-size row
chunks, plus a sortedness flag.  The physical access layer
(:mod:`repro.storage.access`) consumes these to skip whole chunks under range
predicates, and the planner's cardinality model reads the same min/max
numbers for range-selectivity interpolation — one pass feeds both, instead
of each consumer re-deriving its own summaries.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from operator import le
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .layouts import ColumnarTable

#: rows per zone-map chunk; small enough that clustered predicates skip
#: meaningful fractions at test scale factors, large enough that the per-chunk
#: bookkeeping stays negligible against the rows it summarises
ZONE_CHUNK_ROWS = 2048

#: distinct values per row above which a column counts as near-unique
NEAR_UNIQUE_SHARE = 0.8

#: how many times its distinct count a key's value range may span for a
#: direct array indexed by value to count as dense
DENSE_KEY_SLACK = 4.0


@dataclass
class ColumnZoneMap:
    """Per-chunk min/max summaries of one column (the classic zone map).

    ``mins[k]`` / ``maxs[k]`` summarise rows ``[k*chunk_rows, (k+1)*chunk_rows)``.
    Only built for columns whose values are mutually comparable; heterogenous
    columns get no zone map at all rather than a partial one.
    """

    chunk_rows: int
    mins: List[Any]
    maxs: List[Any]

    @property
    def num_chunks(self) -> int:
        return len(self.mins)

    def chunk_span(self, chunk: int, num_rows: int) -> Tuple[int, int]:
        """The ``[start, stop)`` row range summarised by ``chunk``."""
        start = chunk * self.chunk_rows
        return start, min(start + self.chunk_rows, num_rows)


@dataclass(init=False, eq=False)
class ColumnStatistics:
    """Statistics of one column.

    Computed from a column (``read``, which returns it), the statistics hold
    two lock-free idempotent memos that serving threads fill on first read:
    the load-pass fields (:attr:`LOAD_PASS_FIELDS`, filled together by
    :meth:`__getattr__` on the first miss, instance attributes after) and
    ``num_distinct``.  Racing first reads may each compute, and each stores
    the same numbers.  The reader is dropped once both memos are filled —
    after the store, so a reader that finds it gone finds the numbers — and
    the statistics of a replaced table never keep its columns alive.  Built
    without ``read``, the statistics are the numbers passed in.
    """

    #: the fields one load pass over a column fills (:func:`_load_pass`)
    LOAD_PASS_FIELDS = ("num_nulls", "min_value", "max_value",
                        "sorted_ascending", "zone_map")

    name: str
    num_rows: int
    #: number of ``None`` values; the nullability analysis proves a column
    #: read NON_NULL exactly when this is zero
    num_nulls: int
    min_value: Optional[Any]
    max_value: Optional[Any]
    #: whether the stored values are non-decreasing in row order (a clustered
    #: column); sorted columns let range predicates prune to one contiguous
    #: row range without consulting the per-chunk zone map
    sorted_ascending: bool
    #: per-chunk min/max summaries (``None`` for incomparable value mixes)
    zone_map: Optional[ColumnZoneMap]

    def __init__(self, name: str, num_rows: int = 0, num_distinct: int = 0,
                 num_nulls: int = 0, min_value: Optional[Any] = None,
                 max_value: Optional[Any] = None, sorted_ascending: bool = False,
                 zone_map: Optional[ColumnZoneMap] = None,
                 read: Optional[Callable[[], Sequence[Any]]] = None,
                 chunk_rows: int = ZONE_CHUNK_ROWS) -> None:
        self.name = name
        self.num_rows = num_rows
        #: returns the column the memos are still to be filled from
        self._read = read
        #: rows per zone-map chunk of the load pass still to run (``None``
        #: once it ran), and the distinct count (``None`` until counted)
        self._chunk_rows: Optional[int] = chunk_rows
        self._num_distinct: Optional[int] = None
        if read is None:
            self._chunk_rows, self._num_distinct = None, num_distinct
            self.num_nulls = num_nulls
            self.min_value = min_value
            self.max_value = max_value
            self.sorted_ascending = sorted_ascending
            self.zone_map = zone_map

    def __getattr__(self, name: str) -> Any:
        """Run the load pass on the first miss of any of its fields."""
        if name not in self.LOAD_PASS_FIELDS:
            raise AttributeError(name)
        chunk_rows, read = self._chunk_rows, self._read
        if chunk_rows is not None and read is not None:
            for field_name, value in zip(self.LOAD_PASS_FIELDS,
                                         _load_pass(read(), chunk_rows)):
                setattr(self, field_name, value)
            self._chunk_rows = None
            if self._num_distinct is not None:
                self._read = None
        return object.__getattribute__(self, name)

    @property
    def num_distinct(self) -> int:
        """Number of distinct values (``None`` is one of them)."""
        read = self._read
        count = self._num_distinct
        if count is None:
            count = self._num_distinct = len(set(read()))
            if self._chunk_rows is None:
                self._read = None
        return count

    def __eq__(self, other: object) -> bool:
        """Equal statistics: every field and the distinct count."""
        if not isinstance(other, ColumnStatistics):
            return NotImplemented
        return self.num_distinct == other.num_distinct and all(
            getattr(self, each.name) == getattr(other, each.name)
            for each in fields(self))

    @property
    def value_range(self) -> Optional[int]:
        """Size of the integer value range [min, max], or ``None`` for non-integers."""
        if isinstance(self.min_value, int) and isinstance(self.max_value, int):
            return self.max_value - self.min_value + 1
        return None

    def is_dense_key(self) -> bool:
        """Whether a direct array indexed by value would be reasonably dense.

        The paper trades memory for speed aggressively ("an aggressive system
        memory trade-off to hold a sparse array"), so the value range may
        exceed the number of distinct values by the generous factor
        :data:`DENSE_KEY_SLACK` (plus 1024 slots).
        """
        value_range = self.value_range
        if value_range is None or self.num_distinct == 0 or self.min_value < 0:
            return False
        return value_range <= DENSE_KEY_SLACK * self.num_distinct + 1024

    @property
    def is_unique(self) -> bool:
        """Every row carries a different value (candidate-key property)."""
        return self.num_rows > 0 and self.num_distinct == self.num_rows

    @property
    def is_near_unique(self) -> bool:
        """More than :data:`NEAR_UNIQUE_SHARE` of the rows carry different
        values: a string dictionary over the column would cost more than it
        could ever save (Section 5.3)."""
        return self.num_rows > 0 and \
            self.num_distinct > NEAR_UNIQUE_SHARE * self.num_rows


@dataclass
class TableStatistics:
    """Statistics of one table: cardinality plus per-column summaries."""

    name: str
    num_rows: int = 0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        return self.columns[name]


@dataclass
class Statistics:
    """Statistics for every loaded table of a catalog."""

    tables: Dict[str, TableStatistics] = field(default_factory=dict)

    def table(self, name: str) -> TableStatistics:
        return self.tables[name]

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def cardinality(self, table: str) -> int:
        return self.tables[table].num_rows

    def column(self, table: str, column: str) -> ColumnStatistics:
        return self.tables[table].columns[column]

    def has_column(self, table: str, column: str) -> bool:
        table_stats = self.tables.get(table)
        return table_stats is not None and column in table_stats.columns

    def key_range(self, table: str, column: str) -> Optional[tuple]:
        stats = self.column(table, column)
        if stats.min_value is None:
            return None
        return (stats.min_value, stats.max_value)

    def columns_by_name(self) -> Dict[str, ColumnStatistics]:
        """Column statistics keyed by (globally unique) column name.

        TPC-H column names are unique across the schema, so consumers that
        only know a column name (the cardinality estimator resolving an
        expression reference) can share this one map instead of each building
        an ad-hoc index over the per-table dictionaries.  First registration
        wins on a (non-TPC-H) name collision.
        """
        merged: Dict[str, ColumnStatistics] = {}
        for table in self.tables.values():
            for name, stats in table.columns.items():
                merged.setdefault(name, stats)
        return merged


def _load_pass(values, chunk_rows: int) -> Tuple[Any, ...]:
    """One pass over a column: ``ColumnStatistics.LOAD_PASS_FIELDS``, in order."""
    if len(values) == 0:
        return 0, None, None, False, None
    num_nulls = sum(1 for value in values if value is None)
    mins: List[Any] = []
    maxs: List[Any] = []
    sorted_ascending = True
    try:
        previous = None
        for start in range(0, len(values), chunk_rows):
            chunk = values[start:start + chunk_rows]
            low, high = min(chunk), max(chunk)
            mins.append(low)
            maxs.append(high)
            if sorted_ascending:
                if previous is not None and chunk[0] < previous:
                    sorted_ascending = False
                else:
                    sorted_ascending = all(map(le, chunk, chunk[1:]))
                previous = chunk[-1]
        return (num_nulls, min(mins), max(maxs), sorted_ascending,
                ColumnZoneMap(chunk_rows, mins, maxs))
    except TypeError:
        # incomparable value mix (e.g. None among ints): no order summaries
        return num_nulls, None, None, False, None


def compute_table_statistics(table: ColumnarTable) -> TableStatistics:
    """The statistics of a table's columns, each read on its first use
    through :meth:`ColumnarTable.column` (which decodes a text column)."""
    stats = TableStatistics(name=table.name, num_rows=table.num_rows)
    for column_name in table.columns:
        stats.columns[column_name] = ColumnStatistics(
            name=column_name, num_rows=table.num_rows,
            read=partial(table.column, column_name))
    return stats
