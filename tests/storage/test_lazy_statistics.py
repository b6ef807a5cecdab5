"""Load-time state is built for what a plan reads.

Registering a table reads none of its rows: a column's load pass (min/max,
NULL count, sortedness) runs on the first read of any of those
fields, and its distinct count on its own first read.  The load-time access
paths are the primary-key direct arrays only: a string dictionary waits for
the first request that reads it.  These tests pin that the lazily read
statistics are the eager ones, that registering reads no row, that
statistics never keep a replaced table's columns alive, and that warming the
22 planned queries leaves what no plan reads unbuilt — a generated text
column no plan reads included, which stays word codes.
"""
import sys
import threading
import weakref
from array import array
from typing import Any, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable, TextColumn
from repro.storage.schema import TableSchema, int_column, string_column
from repro.storage.statistics import ColumnStatistics, compute_table_statistics
from repro.tpch.dbgen import generate_catalog

#: the fields a column's load pass fills together on the first read of any
LOAD_PASS = ("num_nulls", "min_value", "max_value", "sorted_ascending")

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def eager_statistics(name, values):
    """The reference: every statistic, distinct count included, taken
    eagerly over the whole column, comparison by comparison."""
    stats = ColumnStatistics(name=name, num_rows=len(values))
    if not values:
        return stats
    stats = ColumnStatistics(
        name=name, num_rows=len(values), num_distinct=len(set(values)),
        num_nulls=sum(1 for value in values if value is None))
    try:
        stats.min_value, stats.max_value = min(values), max(values)
        stats.sorted_ascending = all(a <= b for a, b in zip(values, values[1:]))
    except TypeError:
        stats.min_value = stats.max_value = None
        stats.sorted_ascending = False
    return stats


def lazy_statistics(values) -> ColumnStatistics:
    """The statistics a loader registers for ``values``: nothing read yet."""
    return ColumnStatistics("c", num_rows=len(values), read=lambda: values)


def fields(stats: ColumnStatistics):
    return (stats.name, stats.num_rows, stats.num_distinct, stats.num_nulls,
            stats.min_value, stats.max_value, stats.sorted_ascending,
            stats.is_unique, stats.is_near_unique, stats.is_dense_key())


small_ints = st.integers(-40, 40)
columns = st.one_of(
    st.lists(small_ints, max_size=50),
    st.lists(small_ints, max_size=50).map(sorted),
    st.lists(st.one_of(st.none(), small_ints), max_size=50),
    st.lists(st.text("abc", max_size=3), max_size=50).map(sorted),
    st.lists(st.one_of(st.none(), st.text("abc", max_size=3)), max_size=50),
    st.lists(small_ints, max_size=50).map(lambda values: sorted(values, reverse=True)),
    # incomparable mix: the load pass's TypeError path
    st.lists(st.one_of(small_ints, st.text("ab", max_size=2)), max_size=50),
    st.lists(st.floats(-5, 5, allow_nan=False), max_size=50),
)


class TestLazyEqualsEager:
    @SETTINGS
    @given(columns)
    def test_every_field(self, values):
        assert fields(lazy_statistics(values)) == fields(eager_statistics("c", values))

    @pytest.mark.parametrize("values, expected", [
        ([], (0, None, None, False)),
        # one NULL: min() and max() of one value compare nothing
        ([None], (1, None, None, True)),
        ([3, "a", 1], (0, None, None, False)),
        ([None, 2, 1], (1, None, None, False)),
        ([5, 5, 3, 1], (0, 1, 5, False)),
        (["a", "b", "b"], (0, "a", "b", True)),
    ])
    def test_edge_columns(self, values, expected):
        lazy = lazy_statistics(values)
        assert (lazy.num_nulls, lazy.min_value, lazy.max_value,
                lazy.sorted_ascending) == expected
        assert fields(lazy) == fields(eager_statistics("c", values))

    def test_every_column_of_a_tpch_catalog(self, tpch_catalog):
        for name in tpch_catalog.table_names():
            table = tpch_catalog.table(name)
            lazy = compute_table_statistics(table)
            for column in table.schema.column_names():
                eager = eager_statistics(column, table.column(column))
                assert fields(lazy.column(column)) == fields(eager), column

    def test_explicit_statistics_are_the_numbers_given(self):
        stats = ColumnStatistics("k", num_rows=10, num_distinct=10,
                                 min_value=0, max_value=9)
        assert stats.num_distinct == 10 and stats.is_unique
        assert stats.is_dense_key() and stats.is_near_unique

    def test_racing_first_reads_agree(self):
        """The count and the load pass are lock-free idempotent memos:
        however first reads interleave, every reader of every column sees
        its one count and its one load pass, and the column is dropped."""
        columns = [list(range(size)) * 2 for size in range(1, 400)]
        stats = [lazy_statistics(values) for values in columns]
        readers = 4
        barrier = threading.Barrier(readers)
        seen: List[List[Any]] = [[] for _ in range(readers)]

        def read(out, distinct_first):
            barrier.wait(timeout=30)
            for each in stats:
                if distinct_first:
                    count, low, high = \
                        each.num_distinct, each.min_value, each.max_value
                else:
                    high, low, count = \
                        each.max_value, each.min_value, each.num_distinct
                out.append((count, low, high))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out, index % 2 == 0))
                       for index, out in enumerate(seen)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [[(size, 0, size - 1) for size in range(1, 400)]] * readers
        assert all(each._read is None for each in stats)


class TestTextColumnDecoding:
    WORDS = ("alpha", "beta", "gamma", "delta")

    def text_table(self, rows):
        """A table whose text column draws fresh codes at every ``draw``."""
        def draw():
            codes, ends = bytearray(), array("I")
            for row in range(rows):
                codes += bytes((row + word) % 4 for word in range(row % 5))
                ends.append(len(codes))
            return codes, ends

        schema = TableSchema("T", [int_column("t_id"), string_column("t_text")],
                             primary_key=("t_id",))
        return ColumnarTable(schema, {"t_id": list(range(rows)),
                                      "t_text": TextColumn(self.WORDS, rows, draw)})

    def test_a_first_read_draws_decodes_and_stores_the_list(self):
        table = self.text_table(6)
        text = table.columns["t_text"]
        assert table.num_rows == 6 and not text._memo
        values = table.column("t_text")
        assert set(text._memo) == {"codes", "strings"}
        assert values == ["", "beta", "gamma delta", "delta alpha beta",
                          "alpha beta gamma delta", ""]
        assert table.columns["t_text"] is values is table.column("t_text")

    def test_statistics_read_the_decoded_column(self):
        catalog = Catalog()
        table = self.text_table(100)
        catalog.register(table)
        assert type(table.columns["t_text"]) is TextColumn
        stats = catalog.statistics.column("T", "t_text")
        assert (stats.num_distinct, stats.min_value) == (17, "")
        assert type(table.columns["t_text"]) is list

    def test_footprint_is_the_decoded_columns(self):
        table = self.text_table(40)
        coded = table.footprint()
        assert type(table.columns["t_text"]) is TextColumn
        assert not table.columns["t_text"]._memo
        values = table.column("t_text")
        assert "" in values
        assert coded == table.footprint() == sum(
            sys.getsizeof(column) + sum(len(v) if isinstance(v, str) else 8
                                        for v in column)
            for column in (values, table.column("t_id")))

    def test_memory_footprint_of_a_tpch_catalog_decodes_nothing(self):
        catalog = generate_catalog(scale_factor=0.001, seed=20160626)
        text = {(name, column) for name in catalog.table_names()
                for column, values in catalog.table(name).columns.items()
                if type(values) is TextColumn}
        assert ("lineitem", "l_comment") in text and len(text) == 10
        assert not any(catalog.table(name).columns[column]._memo for name, column in text)
        assert catalog.memory_footprint() == 2_178_143
        assert not any(catalog.table(name).columns[column]._memo for name, column in text)
        for name, column in text:
            catalog.column(name, column)
        assert catalog.memory_footprint() == 2_178_143

    def test_racing_first_reads_agree(self):
        """Every reader of a column never drawn draws and decodes, or finds
        the codes or the list: all of them get one list, the table holds
        exactly that list, and its decoding read the one stored codes.  Half
        the readers size the table first, which draws codes it does not
        keep."""
        tables = [self.text_table(rows) for rows in range(1, 300)]
        texts = [table.columns["t_text"] for table in tables]
        expected = [self.text_table(rows).column("t_text") for rows in range(1, 300)]
        readers = 4
        barrier = threading.Barrier(readers)
        seen: List[List[Any]] = [[] for _ in range(readers)]
        coded: List[List[Any]] = [[] for _ in range(readers)]

        def read(out, codes, size_first):
            barrier.wait(timeout=30)
            for table, text in zip(tables, texts):
                if size_first:
                    table.footprint()
                codes.append(text.coded())
                out.append(table.column("t_text"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out, codes, index % 2 == 0))
                       for index, (out, codes) in enumerate(zip(seen, coded))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == expected for out in seen)
        for index, table in enumerate(tables):
            stored = table.columns["t_text"]
            assert type(stored) is list
            assert all(out[index] is stored for out in seen)
            assert all(codes[index] is texts[index].coded() for codes in coded)
            assert texts[index].decode() is stored


class _CountingColumn(list):
    """A column that counts the reads of its rows."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def count(self, value):
        self.reads += 1
        return super().count(value)


def _counted_table() -> ColumnarTable:
    schema = TableSchema("T", [int_column("t_id"), string_column("t_tag")],
                         primary_key=("t_id",))
    return ColumnarTable(schema, {"t_id": _CountingColumn(range(3000)),
                                  "t_tag": _CountingColumn(["b", None, "a"] * 1000)})


class TestRegisterReadsNoRows:
    def test_at_set_up_and_at_a_reload(self):
        catalog = Catalog()
        first = _counted_table()
        catalog.register(first)
        catalog.access_layer()
        second = _counted_table()
        catalog.register(second)
        assert [column.reads for table in (first, second)
                for column in table.columns.values()] == [0, 0, 0, 0]

    @pytest.mark.parametrize("first", LOAD_PASS)
    def test_rows_are_read_at_the_first_field_read(self, first):
        catalog = Catalog()
        table = _counted_table()
        catalog.register(table)
        column = table.columns["t_id"]
        stats = catalog.statistics.column("T", "t_id")
        assert column.reads == 0
        getattr(stats, first)
        one_pass = column.reads
        assert one_pass > 0
        # the other fields came with it, stored as plain attributes
        assert all(name in vars(stats) for name in LOAD_PASS)
        assert (stats.num_nulls, stats.min_value, stats.max_value,
                stats.sorted_ascending) == (0, 0, 2999, True)
        assert column.reads == one_pass and stats._read() is column
        assert stats.num_distinct == 3000 and stats._read is None
        assert column.reads == one_pass + 1
        assert table.columns["t_tag"].reads == 0


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

    @pytest.mark.parametrize("table,column", [("lineitem", "l_comment"),
                                              ("partsupp", "ps_comment"),
                                              ("part", "p_comment")])
    def test_a_comment_no_plan_reads_is_never_decoded_nor_counted(
            self, warm_catalog, table, column):
        # looked up in the dict: ``column()`` would decode it
        assert type(warm_catalog.table(table).columns[column]) is TextColumn
        stats = warm_catalog.statistics.column(table, column)
        assert stats._read is not None and stats._num_distinct is None
        # nor was its load pass run
        assert not set(LOAD_PASS) & set(vars(stats))

    def test_a_comment_a_plan_reads_is_decoded(self, warm_catalog):
        # Q13 filters on o_comment: warming it decoded the column in place
        assert type(warm_catalog.table("orders").columns["o_comment"]) is list

    def test_l_linestatus_has_no_dictionary(self, warm_catalog):
        layer = warm_catalog.access_layer()
        assert ("dictionary", "lineitem", "l_linestatus") not in layer.build_counts
        # while the dictionaries a plan reads are built
        assert layer.build_counts[("dictionary", "lineitem", "l_shipmode")] == 1

    def test_near_unique_strings_get_no_dictionary(self, warm_catalog):
        layer = warm_catalog.access_layer()
        stats = warm_catalog.statistics.column("customer", "c_address")
        assert stats.is_near_unique and not stats.is_unique
        assert layer.dictionary("customer", "c_address") is None
        assert ("dictionary", "customer", "c_address") not in layer.build_counts


def test_a_near_unique_comment_gets_no_dictionary():
    """p_comment on a catalog of its own: asking for its dictionary counts
    and so decodes it, which ``warm_catalog`` must never see."""
    catalog = generate_catalog(scale_factor=0.01, seed=20160626)
    layer = catalog.access_layer()
    stats = catalog.statistics.column("part", "p_comment")
    assert stats.is_near_unique and not stats.is_unique
    assert layer.dictionary("part", "p_comment") is None
    assert ("dictionary", "part", "p_comment") not in layer.build_counts
