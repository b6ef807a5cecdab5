"""Data statistics used for worst-case size analysis (paper Section D.1).

The memory-allocation hoisting and data-structure initialisation hoisting
transformations need, at compile time, worst-case estimates of cardinalities
and key ranges: how large to pre-allocate pools, whether a key column is dense
enough to be backed by a direct array, how many distinct groups an aggregation
may produce.  :meth:`repro.storage.catalog.Catalog.register` calls
:func:`compute_table_statistics` for every loaded table: one pass per column
takes everything but the distinct count, which needs a set as large as the
column's distinct values and is taken on its first read instead — only the
columns a plan touches are ever asked (:attr:`ColumnStatistics.num_distinct`).

Beyond the scalar summaries, every column also gets a **zone map**
(:class:`ColumnZoneMap`): per-chunk minima and maxima over fixed-size row
chunks, plus a sortedness flag.  The physical access layer
(:mod:`repro.storage.access`) consumes these to skip whole chunks under range
predicates, and the planner's cardinality model reads the same min/max
numbers for range-selectivity interpolation — one load-time pass feeds both,
instead of each consumer re-deriving its own summaries.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .layouts import ColumnarTable

#: rows per zone-map chunk; small enough that clustered predicates skip
#: meaningful fractions at test scale factors, large enough that the per-chunk
#: bookkeeping stays negligible against the rows it summarises
ZONE_CHUNK_ROWS = 2048

#: distinct values per row above which a column counts as near-unique
NEAR_UNIQUE_SHARE = 0.8


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

    Computed from a column (``values``), everything but the distinct count
    comes out of the load pass; ``num_distinct`` is counted on its first read
    and the reference to the column dropped then, so the statistics of a
    replaced table never keep its columns alive.  Built without ``values``,
    the statistics are the numbers passed in.
    """

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
                 values: Optional[Sequence[Any]] = None) -> None:
        self.name = name
        self.num_rows = num_rows
        self.num_nulls = num_nulls
        self.min_value = min_value
        self.max_value = max_value
        self.sorted_ascending = sorted_ascending
        self.zone_map = zone_map
        self._num_distinct = num_distinct
        #: the column ``num_distinct`` is still to be counted from
        self._values = values

    @property
    def num_distinct(self) -> int:
        """Number of distinct values (``None`` is one of them).

        An idempotent memo that serving threads read without a lock: racing
        first reads may each count, and each stores the same number.  The
        column is dropped only after the count is stored, so a reader that
        finds the column gone finds the count.
        """
        values = self._values
        if values is not None:
            self._num_distinct = len(set(values))
            self._values = None
        return self._num_distinct

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

    def is_dense_key(self, slack: float = 4.0) -> bool:
        """Whether a direct array indexed by value would be reasonably dense.

        The paper trades memory for speed aggressively ("an aggressive system
        memory trade-off to hold a sparse array"), so a generous slack factor
        is allowed between the value range and the number of distinct values.
        """
        value_range = self.value_range
        if value_range is None or self.num_distinct == 0 or self.min_value < 0:
            return False
        return value_range <= slack * max(self.num_distinct, 1) + 1024

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


def compute_column_statistics(name: str, values,
                              chunk_rows: int = ZONE_CHUNK_ROWS) -> ColumnStatistics:
    """One load-time pass: min/max, NULL count, sortedness and zone map; the
    distinct count is left to its first read."""
    stats = ColumnStatistics(name=name, num_rows=len(values), values=values)
    if len(values) == 0:
        return stats
    stats.num_nulls = values.count(None)
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
                    sorted_ascending = all(a <= b for a, b in zip(chunk, chunk[1:]))
                previous = chunk[-1]
        stats.min_value = min(mins)
        stats.max_value = max(maxs)
        stats.sorted_ascending = sorted_ascending
        stats.zone_map = ColumnZoneMap(chunk_rows, mins, maxs)
    except TypeError:
        # incomparable value mix (e.g. None among ints): no order summaries
        stats.min_value = None
        stats.max_value = None
        stats.sorted_ascending = False
        stats.zone_map = None
    return stats


def compute_table_statistics(table: ColumnarTable) -> TableStatistics:
    stats = TableStatistics(name=table.name, num_rows=table.num_rows)
    for column_name, values in table.columns.items():
        stats.columns[column_name] = compute_column_statistics(column_name, values)
    return stats
