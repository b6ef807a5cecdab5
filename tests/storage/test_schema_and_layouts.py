"""Unit tests for schema definitions, layouts, statistics and the catalog."""
import sys

import pytest

from repro.ir.types import FLOAT, STRING
from repro.storage.catalog import Catalog, CatalogError
from repro.storage.layouts import ColumnarTable, LayoutError
from repro.storage.schema import (ForeignKey, Schema, SchemaError, TableSchema,
                                  float_column, int_column, string_column)
from repro.storage.statistics import compute_table_statistics


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
        assert schema.column_type("name") is STRING

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
        assert table.row_dict(1) == {"id": 2, "name": "bob", "salary": 20.0, "dept_id": 7}

    def test_columnar_rejects_ragged_columns(self):
        with pytest.raises(LayoutError):
            ColumnarTable(sample_schema(), {
                "id": [1], "name": ["a", "b"], "salary": [1.0], "dept_id": [1]})

    def test_columnar_rejects_wrong_columns(self):
        with pytest.raises(LayoutError):
            ColumnarTable(sample_schema(), {"id": [1]})

    def test_from_rows_round_trip(self):
        table = sample_table()
        rebuilt = ColumnarTable.from_rows(sample_schema(), list(table.iter_rows()))
        assert rebuilt.columns == table.columns


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

    def test_sparse_key_rejected(self):
        schema = TableSchema("t", [int_column("k")])
        table = ColumnarTable(schema, {"k": [1, 10_000_000]})
        stats = compute_table_statistics(table)
        assert not stats.column("k").is_dense_key()


class TestCatalog:
    def test_register_and_access(self):
        catalog = Catalog()
        catalog.register(sample_table())
        assert catalog.size("employee") == 3
        assert catalog.column("employee", "name") == ["ann", "bob", "cat"]
        assert catalog.statistics.cardinality("employee") == 3
        assert catalog.primary_key_of("employee") == "id"
        assert catalog.is_primary_key("employee", "id")
        assert catalog.is_foreign_key("employee", "dept_id")
        assert not catalog.is_foreign_key("employee", "salary")

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            Catalog().table("nope")

    def test_register_rows(self):
        catalog = Catalog()
        catalog.register_rows(sample_schema(), list(sample_table().iter_rows()))
        assert catalog.size("employee") == 3

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
        """``storage.catalog_bytes`` at sf 0.001 (pinned when each text
        column got its own seed stream).  Sizing string-ness per value, not
        by a column's first value, gives the same integer: TPC-H has no
        NULLs."""
        assert tpch_catalog.memory_footprint() == 2_178_169
