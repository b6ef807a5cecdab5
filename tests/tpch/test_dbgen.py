"""Unit tests for the TPC-H schema and the deterministic data generator."""
import pytest

from repro import dates
from repro.tpch.dbgen import (BASE_CARDINALITIES, NATIONS, REGIONS, TpchGenerator,
                              generate_catalog)
from repro.tpch.schema import ALL_TABLES, tpch_schema

SF = 0.001


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(scale_factor=SF, seed=7)


class TestSchema:
    def test_eight_tables(self):
        schema = tpch_schema()
        assert sorted(schema.table_names()) == sorted(t.name for t in ALL_TABLES)
        assert len(schema.table_names()) == 8

    def test_foreign_keys_resolve(self):
        tpch_schema().validate_foreign_keys()

    def test_lineitem_composite_primary_key(self):
        schema = tpch_schema()
        assert schema.table("lineitem").primary_key == ("l_orderkey", "l_linenumber")
        assert schema.table("orders").single_column_primary_key == "o_orderkey"

    def test_column_names_globally_unique(self):
        schema = tpch_schema()
        all_columns = [c for t in schema.tables.values() for c in t.column_names()]
        assert len(all_columns) == len(set(all_columns))


class TestGenerator:
    def test_determinism(self):
        a = generate_catalog(scale_factor=SF, seed=42)
        b = generate_catalog(scale_factor=SF, seed=42)
        assert a.column("orders", "o_totalprice") == b.column("orders", "o_totalprice")
        assert a.column("lineitem", "l_shipdate") == b.column("lineitem", "l_shipdate")

    def test_different_seeds_differ(self):
        a = generate_catalog(scale_factor=SF, seed=1)
        b = generate_catalog(scale_factor=SF, seed=2)
        assert a.column("orders", "o_totalprice") != b.column("orders", "o_totalprice")

    def test_cardinalities_scale(self, catalog):
        assert catalog.size("nation") == 25
        assert catalog.size("region") == 5
        assert catalog.size("customer") == int(BASE_CARDINALITIES["customer"] * SF)
        assert catalog.size("orders") == int(BASE_CARDINALITIES["orders"] * SF)
        lo, hi = BASE_CARDINALITIES["lineitems_per_order"]
        n_orders = catalog.size("orders")
        assert n_orders * lo <= catalog.size("lineitem") <= n_orders * hi

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            TpchGenerator(scale_factor=0)

    def test_primary_keys_are_dense(self, catalog):
        for table, column in [("orders", "o_orderkey"), ("customer", "c_custkey"),
                              ("part", "p_partkey"), ("supplier", "s_suppkey")]:
            values = catalog.column(table, column)
            assert values == list(range(1, len(values) + 1))

    def test_foreign_keys_reference_existing_rows(self, catalog):
        n_customers = catalog.size("customer")
        assert all(1 <= k <= n_customers for k in catalog.column("orders", "o_custkey"))
        n_orders = catalog.size("orders")
        assert all(1 <= k <= n_orders for k in catalog.column("lineitem", "l_orderkey"))
        n_parts = catalog.size("part")
        assert all(1 <= k <= n_parts for k in catalog.column("partsupp", "ps_partkey"))

    def test_nation_region_mapping_is_official(self, catalog):
        assert catalog.column("nation", "n_name") == [name for name, _ in NATIONS]
        assert catalog.column("region", "r_name") == REGIONS

    def test_date_domains(self, catalog):
        orderdates = catalog.column("orders", "o_orderdate")
        assert min(orderdates) >= dates.date_to_int("1992-01-01")
        assert max(orderdates) <= dates.date_to_int("1998-08-02")
        ship = catalog.column("lineitem", "l_shipdate")
        receipt = catalog.column("lineitem", "l_receiptdate")
        assert all(r > s for s, r in zip(ship, receipt))

    def test_lineitem_status_consistent_with_dates(self, catalog):
        cutoff = dates.date_to_int("1995-06-17")
        ship = catalog.column("lineitem", "l_shipdate")
        status = catalog.column("lineitem", "l_linestatus")
        for s, st in zip(ship, status):
            assert st == ("O" if s > cutoff else "F")

    def test_value_domains(self, catalog):
        assert set(catalog.column("lineitem", "l_returnflag")) <= {"R", "A", "N"}
        assert set(catalog.column("orders", "o_orderstatus")) <= {"F", "O", "P"}
        assert all(0 <= d <= 0.10 for d in catalog.column("lineitem", "l_discount"))
        assert all(1 <= q <= 50 for q in catalog.column("lineitem", "l_quantity"))
        segments = set(catalog.column("customer", "c_mktsegment"))
        assert "BUILDING" in segments

    def test_workload_keywords_present(self, catalog):
        """Queries rely on certain substrings being present in text columns."""
        comments = catalog.column("orders", "o_comment")
        assert any("special" in c and "requests" in c for c in comments)
        types = catalog.column("part", "p_type")
        assert any(t.startswith("PROMO") for t in types)
        names = catalog.column("part", "p_name")
        assert any("green" in n for n in names)

    def test_statistics_available_for_every_table(self, catalog):
        for name in catalog.table_names():
            assert catalog.statistics.has_table(name)
            assert catalog.statistics.cardinality(name) == catalog.size(name)

    def test_generated_catalog_is_a_loaded_catalog(self, catalog, monkeypatch):
        """The generator goes through ``Catalog.register`` like the loader:
        the same statistics and generation as registering its tables by hand,
        and every table passes the loader's one invalidation point."""
        from repro.storage.catalog import Catalog

        loaded = Catalog(schema=tpch_schema())
        for name in catalog.table_names():
            loaded.register(catalog.table(name))
        assert loaded.table_names() == catalog.table_names()
        assert loaded.statistics == catalog.statistics
        assert loaded.access_layer().generation == \
            catalog.access_layer().generation == 0

        registered = []
        original = Catalog.register
        monkeypatch.setattr(
            Catalog, "register",
            lambda self, table: (registered.append(table.schema.name),
                                 original(self, table))[1])
        generated = generate_catalog(scale_factor=SF, seed=7)
        assert sorted(registered) == sorted(generated.table_names())
        assert generated.statistics == catalog.statistics
