"""Load-time state is built for what a plan reads.

A column's distinct count is taken on its first read, not in the load pass,
and the load-time access paths are the primary-key direct arrays only: a
string dictionary waits for the first request that reads it.  These tests
pin that the lazily read statistics are the eager ones, that statistics
never keep a replaced table's columns alive, and that warming the 22 planned
queries leaves what no plan reads unbuilt.
"""
import sys
import threading
import weakref
from typing import Any, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column, string_column
from repro.storage.statistics import (ZONE_CHUNK_ROWS, ColumnStatistics,
                                      ColumnZoneMap, compute_column_statistics,
                                      compute_table_statistics)

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def eager_statistics(name, values, chunk_rows):
    """The reference: every statistic, distinct count included, taken in one
    eager pass over the column."""
    stats = ColumnStatistics(name=name, num_rows=len(values))
    if not values:
        return stats
    stats = ColumnStatistics(
        name=name, num_rows=len(values), num_distinct=len(set(values)),
        num_nulls=sum(1 for value in values if value is None))
    chunks = [values[start:start + chunk_rows]
              for start in range(0, len(values), chunk_rows)]
    try:
        mins = [min(chunk) for chunk in chunks]
        maxs = [max(chunk) for chunk in chunks]
        stats.min_value, stats.max_value = min(mins), max(maxs)
        stats.sorted_ascending = all(
            later[0] >= earlier[-1] for earlier, later in zip(chunks, chunks[1:])
        ) and all(a <= b for chunk in chunks for a, b in zip(chunk, chunk[1:]))
        stats.zone_map = ColumnZoneMap(chunk_rows, mins, maxs)
    except TypeError:
        pass
    return stats


def fields(stats: ColumnStatistics):
    zone_map = stats.zone_map
    return (stats.name, stats.num_rows, stats.num_distinct, stats.num_nulls,
            stats.min_value, stats.max_value, stats.sorted_ascending,
            None if zone_map is None else
            (zone_map.chunk_rows, zone_map.mins, zone_map.maxs),
            stats.is_unique, stats.is_near_unique, stats.is_dense_key())


small_ints = st.integers(-40, 40)
columns = st.one_of(
    st.lists(small_ints, max_size=50),
    st.lists(small_ints, max_size=50).map(sorted),
    st.lists(st.one_of(st.none(), small_ints), max_size=50),
    st.lists(st.text("abc", max_size=3), max_size=50).map(sorted),
    st.lists(st.one_of(st.none(), st.text("abc", max_size=3)), max_size=50),
    # incomparable mix: the zone map's TypeError path
    st.lists(st.one_of(small_ints, st.text("ab", max_size=2)), max_size=50),
    st.lists(st.floats(-5, 5, allow_nan=False), max_size=50),
)


class TestLazyEqualsEager:
    @SETTINGS
    @given(columns, st.integers(1, 12))
    def test_every_field(self, values, chunk_rows):
        lazy = compute_column_statistics("c", values, chunk_rows=chunk_rows)
        assert fields(lazy) == fields(eager_statistics("c", values, chunk_rows))

    def test_every_column_of_a_tpch_catalog(self, tpch_catalog):
        for name in tpch_catalog.table_names():
            table = tpch_catalog.table(name)
            lazy = compute_table_statistics(table)
            for column, values in table.columns.items():
                eager = eager_statistics(column, values, ZONE_CHUNK_ROWS)
                assert fields(lazy.column(column)) == fields(eager), column

    def test_explicit_statistics_are_the_numbers_given(self):
        stats = ColumnStatistics("k", num_rows=10, num_distinct=10,
                                 min_value=0, max_value=9)
        assert stats.num_distinct == 10 and stats.is_unique
        assert stats.is_dense_key() and stats.is_near_unique

    def test_racing_first_reads_agree(self):
        """The count is a lock-free idempotent memo: however first reads
        interleave, every reader of every column sees its one count."""
        columns = [list(range(size)) * 2 for size in range(1, 400)]
        stats = [compute_column_statistics("c", values) for values in columns]
        readers = 4
        barrier = threading.Barrier(readers)
        seen: List[List[Any]] = [[] for _ in range(readers)]

        def read(out):
            barrier.wait(timeout=30)
            out.extend(each.num_distinct for each in stats)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in seen]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [list(range(1, 400))] * readers
        assert all(each._values is None for each in stats)

class _Column(list):
    """A column that can be referenced weakly (a ``list`` cannot)."""


class TestReplacedColumnsAreFreed:
    @pytest.mark.parametrize("counted", [False, True])
    def test_after_register_replaces_the_table(self, counted):
        catalog = Catalog()
        schema = TableSchema("T", [int_column("t_id"), string_column("t_tag")],
                             primary_key=("t_id",))
        table = ColumnarTable(schema, {"t_id": _Column(range(50)),
                                       "t_tag": _Column(["a", "b"] * 25)})
        catalog.register(table)
        refs = [weakref.ref(values) for values in table.columns.values()]
        if counted:
            layer = catalog.access_layer()
            assert layer.key_index("T", "t_id") is not None
            assert layer.dictionary("T", "t_tag") is not None
            assert catalog.statistics.column("T", "t_tag").num_distinct == 2
        del table
        assert all(ref() is not None for ref in refs)
        catalog.register(ColumnarTable(schema, {"t_id": [1], "t_tag": ["c"]}))
        assert [ref() for ref in refs] == [None, None]


class TestWarmingBuildsWhatPlansRead:
    """sf 0.01 after ``warm_access_paths`` and the 22 planned queries."""

    def test_l_comment_is_never_counted(self, warm_catalog):
        stats = warm_catalog.statistics.column("lineitem", "l_comment")
        assert stats._values is warm_catalog.column("lineitem", "l_comment")

    def test_l_linestatus_has_no_dictionary(self, warm_catalog):
        layer = warm_catalog.access_layer()
        assert ("dictionary", "lineitem", "l_linestatus") not in layer.build_counts
        # while the dictionaries a plan reads are built
        assert layer.build_counts[("dictionary", "lineitem", "l_shipmode")] == 1

    def test_near_unique_strings_get_no_dictionary(self, warm_catalog):
        layer = warm_catalog.access_layer()
        for table, column in (("customer", "c_address"), ("part", "p_comment")):
            stats = warm_catalog.statistics.column(table, column)
            assert stats.is_near_unique and not stats.is_unique
            assert layer.dictionary(table, column) is None
            assert ("dictionary", table, column) not in layer.build_counts
