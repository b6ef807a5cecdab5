"""Unit tests for the .tbl loader and the integer date encoding."""

import pytest

from repro import dates
from repro.storage.loader import (LoaderError, dump_table_file, load_directory,
                                  load_table_file)
from repro.storage.schema import (Schema, TableSchema, date_column, float_column,
                                  int_column, string_column)


class TestDates:
    def test_round_trip(self):
        assert dates.date_to_int("1998-09-02") == 19980902
        assert dates.int_to_str(19980902) == "1998-09-02"

    def test_year_extraction(self):
        assert dates.year_of(19950704) == 1995

    def test_add_days_crosses_month_and_year(self):
        assert dates.add_days(19981230, 5) == 19990104

    def test_add_months(self):
        assert dates.add_months(19950101, 3) == 19950401
        assert dates.add_months(19951115, 3) == 19960215

    def test_add_months_clamps_day(self):
        assert dates.add_months(19950131, 1) in (19950228, 19950227)

    def test_add_years(self):
        assert dates.add_years(19940101, 1) == 19950101

    def test_ordering_matches_chronology(self):
        assert dates.date_to_int("1995-03-15") < dates.date_to_int("1995-03-16")
        assert dates.date_to_int("1994-12-31") < dates.date_to_int("1995-01-01")

    def test_int_passthrough(self):
        assert dates.date_to_int(19940101) == 19940101


def sales_schema() -> TableSchema:
    return TableSchema("sales", [int_column("id"), string_column("item"),
                                 float_column("price"), date_column("day")],
                       primary_key=("id",))


class TestLoader:
    def test_load_and_dump_round_trip(self, tmp_path):
        path = tmp_path / "sales.tbl"
        path.write_text("1|apple|2.5|1995-01-01|\n2|pear|3.0|1996-06-15|\n")
        table = load_table_file(sales_schema(), str(path))
        assert table.num_rows == 2
        assert table.column("day") == [19950101, 19960615]
        out = tmp_path / "out.tbl"
        dump_table_file(table, str(out))
        reloaded = load_table_file(sales_schema(), str(out))
        assert reloaded.columns == table.columns

    def test_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "sales.tbl"
        path.write_text("1|apple|\n")
        with pytest.raises(LoaderError):
            load_table_file(sales_schema(), str(path))

    def test_load_directory(self, tmp_path):
        (tmp_path / "sales.tbl").write_text("1|apple|2.5|1995-01-01|\n")
        schema = Schema().add(sales_schema())
        catalog = load_directory(schema, str(tmp_path))
        assert catalog.size("sales") == 1

    def test_load_directory_missing_file(self, tmp_path):
        schema = Schema().add(sales_schema())
        with pytest.raises(LoaderError):
            load_directory(schema, str(tmp_path))

    def test_empty_lines_are_skipped(self, tmp_path):
        path = tmp_path / "sales.tbl"
        path.write_text("1|apple|2.5|1995-01-01|\n\n2|pear|3.0|1996-06-15|\n")
        table = load_table_file(sales_schema(), str(path))
        assert table.num_rows == 2


class TestLoaderInterning:
    """``load_table_file`` interns per column as it parses: same values,
    types and ``repr`` as parsing every field, one object per distinct field."""

    SCHEMA = TableSchema("t", [int_column("k"), float_column("f"),
                               string_column("s"), date_column("d")])
    ROWS = [("1", "1.0", "a", "1995-01-01"), ("1", "-0.0", "None", "1995-01-01"),
            ("7", "0.0", "a", "1996-02-29"), ("1", "nan", "", "1995-01-01"),
            ("7", "NaN", "None", "1996-02-29"), ("300", "1.0", "1", "1995-01-01"),
            ("300", "-0.0", "1.0", "1996-02-29"), ("1", "1e3", "a", "1995-01-01")]

    @pytest.fixture()
    def table(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("".join("|".join(row) + "|\n" for row in self.ROWS))
        return load_table_file(self.SCHEMA, str(path))

    def test_values_types_and_repr_are_those_of_parsing_every_field(self, table):
        from repro.storage.loader import parse_value
        names = self.SCHEMA.column_names()
        for index, name in enumerate(names):
            ctype = self.SCHEMA.column_type(name)
            expected = [parse_value(row[index], ctype) for row in self.ROWS]
            assert [(type(v), repr(v)) for v in table.column(name)] == \
                [(type(v), repr(v)) for v in expected]
        assert [repr(v) for v in table.column("f")] == \
            ["1.0", "-0.0", "0.0", "nan", "nan", "1.0", "-0.0", "1000.0"]

    def test_one_object_per_distinct_field(self, table):
        for index, name in enumerate(self.SCHEMA.column_names()):
            distinct_fields = len({row[index] for row in self.ROWS})
            assert len({id(v) for v in table.column(name)}) == distinct_fields
        k = table.column("k")
        assert k[5] is k[6] and k[5] == 300   # beyond CPython's small ints

    def test_pools_are_per_column(self, table):
        """An INT column's ``1`` and a FLOAT column's ``1.0`` are equal and
        hash alike; they must never meet in one pool."""
        assert table.column("k")[0] == table.column("f")[0]
        assert type(table.column("k")[0]) is int
        assert type(table.column("f")[0]) is float
        assert table.column("s")[5] == "1" and table.column("s")[6] == "1.0"

    def test_generated_table_round_trips_with_values_and_types(self, tmp_path):
        from repro.tpch.dbgen import generate_catalog
        catalog = generate_catalog(scale_factor=0.001, seed=3)
        assert len(catalog.table_names()) == 8
        for name in catalog.table_names():
            original = catalog.table(name)
            path = tmp_path / f"{name}.tbl"
            dump_table_file(original, str(path))
            reloaded = load_table_file(original.schema, str(path))
            for column in original.schema.column_names():
                values, again = original.column(column), reloaded.column(column)
                assert again == values
                assert [type(v) for v in again] == [type(v) for v in values]
                assert len({id(v) for v in again}) == len(set(values))
