"""Unit tests for schema definitions, layouts, statistics and the catalog."""
import sys

import pytest

from repro.ir.types import FLOAT, STRING
from repro.storage.catalog import Catalog, CatalogError
from repro.storage.layouts import ColumnarTable, LayoutError
from repro.storage.schema import (ForeignKey, Schema, SchemaError, TableSchema,
                                  float_column, int_column, string_column)
from repro.storage.statistics import DENSE_KEY_SLACK, compute_table_statistics


def sample_schema() -> TableSchema:
    return TableSchema(
        name="employee",
        columns=[int_column("id"), string_column("name"), float_column("salary"),
                 int_column("dept_id", references=("department", "id"))],
        primary_key=("id",),
    )


def sample_table() -> ColumnarTable:
    return ColumnarTable(sample_schema(), {
        "id": [1, 2, 3],
        "name": ["ann", "bob", "cat"],
        "salary": [10.0, 20.0, 30.0],
        "dept_id": [7, 7, 9],
    })


class TestSchema:
    def test_column_lookup(self):
        schema = sample_schema()
        assert schema.column("salary").type is FLOAT
        assert schema.column("name").type is STRING

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            sample_schema().column("missing")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [int_column("a"), int_column("a")])

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [int_column("a")], primary_key=("b",))

    def test_single_column_primary_key(self):
        assert sample_schema().single_column_primary_key == "id"
        composite = TableSchema("t", [int_column("a"), int_column("b")],
                                primary_key=("a", "b"))
        assert composite.single_column_primary_key is None

    def test_foreign_keys_collected(self):
        fkeys = sample_schema().foreign_keys()
        assert fkeys == {"dept_id": ForeignKey("department", "id")}

    def test_schema_table_registry(self):
        schema = Schema().add(sample_schema())
        assert schema.has_table("employee")
        assert schema.table_of_column("salary") == "employee"
        with pytest.raises(SchemaError):
            schema.add(sample_schema())
        with pytest.raises(SchemaError):
            schema.table("missing")

    def test_foreign_key_validation(self):
        schema = Schema().add(sample_schema())
        with pytest.raises(SchemaError):
            schema.validate_foreign_keys()
        schema.add(TableSchema("department", [int_column("id"), string_column("name")],
                               primary_key=("id",)))
        schema.validate_foreign_keys()


class TestLayouts:
    def test_columnar_row_access(self):
        table = sample_table()
        assert table.num_rows == 3
        assert [table.column(name)[1] for name in table.columns] == [2, "bob", 20.0, 7]

    def test_columnar_rejects_ragged_columns(self):
        with pytest.raises(LayoutError):
            ColumnarTable(sample_schema(), {
                "id": [1], "name": ["a", "b"], "salary": [1.0], "dept_id": [1]})

    def test_columnar_rejects_wrong_columns(self):
        with pytest.raises(LayoutError):
            ColumnarTable(sample_schema(), {"id": [1]})


class TestStatistics:
    def test_table_statistics(self):
        stats = compute_table_statistics(sample_table())
        assert stats.num_rows == 3
        assert stats.column("dept_id").num_distinct == 2
        assert stats.column("id").min_value == 1
        assert stats.column("id").max_value == 3

    def test_dense_key_detection(self):
        stats = compute_table_statistics(sample_table())
        assert stats.column("id").is_dense_key()
        assert stats.column("name").value_range is None

    @pytest.mark.parametrize("keys", [[1, 10_000_000], [-1, 0, 1], []],
                             ids=["sparse", "negative", "empty"])
    def test_non_dense_key_rejected(self, keys):
        schema = TableSchema("t", [int_column("k")])
        stats = compute_table_statistics(ColumnarTable(schema, {"k": keys}))
        assert not stats.column("k").is_dense_key()

    def test_a_dense_key_spans_at_most_the_slack_times_its_distinct_values(self):
        """100 distinct values may span ``DENSE_KEY_SLACK * 100 + 1024``
        slots, not one more."""
        assert DENSE_KEY_SLACK == 4.0
        schema = TableSchema("t", [int_column("k")])
        widest = int(DENSE_KEY_SLACK * 100) + 1024
        for span, dense in ((widest, True), (widest + 1, False)):
            keys = list(range(99)) + [span - 1]          # values 0 .. span - 1
            stats = compute_table_statistics(ColumnarTable(schema, {"k": keys}))
            assert stats.column("k").value_range == span
            assert stats.column("k").is_dense_key() is dense


class TestCatalog:
    def test_register_and_access(self):
        catalog = Catalog()
        catalog.register(sample_table())
        assert catalog.size("employee") == 3
        assert catalog.column("employee", "name") == ["ann", "bob", "cat"]
        assert catalog.statistics.cardinality("employee") == 3
        assert catalog.is_primary_key("employee", "id")
        assert not catalog.is_primary_key("employee", "dept_id")

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    @pytest.mark.parametrize("names, logical_bytes", [
        (["ann", "bob", "cat"], 3 * 8 + 9 + 3 * 8 + 3 * 8),
        # a NULL among strings is 8 B wherever it stands, and the strings
        # are their characters whichever value comes first
        (["x" * 100, None, "ab"], 3 * 8 + 110 + 3 * 8 + 3 * 8),
        ([None, "x" * 100, "ab"], 3 * 8 + 110 + 3 * 8 + 3 * 8),
    ], ids=["strings", "null_after_a_string", "null_first"])
    def test_memory_footprint_positive(self, names, logical_bytes):
        table = sample_table()
        table.columns["name"] = names
        catalog = Catalog()
        catalog.register(table)
        lists = sum(sys.getsizeof(values) for values in table.columns.values())
        assert catalog.memory_footprint() == lists + logical_bytes > 0

    def test_memory_footprint_of_a_tpch_catalog(self, tpch_catalog):
        """``storage.catalog_bytes`` at sf 0.001 (pinned when a text word
        became two draws, a word list and then one word of it).  Sizing string-ness per value, not
        by a column's first value, gives the same integer: TPC-H has no
        NULLs."""
        assert tpch_catalog.memory_footprint() == 2_178_143
