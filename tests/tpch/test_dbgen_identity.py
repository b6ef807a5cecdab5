"""The generator is pinned, and what it loads is one object per distinct value.

``GOLDEN`` holds a per-column digest — values, order *and* ``type`` — of
``generate_catalog(0.001, 20160626)``; ``GOLDEN_SF_0002`` is the same digest
at sf 0.002, where part and customer keys leave CPython's small-int cache and
a part key is a 9-bit draw, so a wrong width in the written-out draws of the
order loop shows.  Both were computed when each text column (the comments
and addresses) got its own seed stream, ``random.Random(f"{seed}/{column}")``,
drawn by the column's first reader, and every other column the main stream
``random.Random(seed)`` in table order — region, nation, supplier, part,
partsupp, customer, orders with their lineitems — which no text draw
touches.  Since then a rewrite of the generator has been provably
identity-only: it may change which *object* a row holds, never what the row
reads.  Both read every column through ``Catalog.column``, as every reader
does.
"""
import hashlib
import sys

import pytest

from repro.tpch.dbgen import generate_catalog

SEED = 20160626   # with sf 0.001: the session-wide ``tpch_catalog`` fixture

GOLDEN = {
    "region.r_regionkey": "3eb2a85513260d09",
    "region.r_name": "0bed2a52a27aa17d",
    "region.r_comment": "4fbca0fff72d80ed",
    "nation.n_nationkey": "4f64dd5c90ed27f6",
    "nation.n_name": "1a0ff096197ead2d",
    "nation.n_regionkey": "9f86a262b94c0bd5",
    "nation.n_comment": "26556850da65110d",
    "supplier.s_suppkey": "920a38ff3db926bf",
    "supplier.s_name": "b611fb24c8143805",
    "supplier.s_address": "a4fb4836aac225c5",
    "supplier.s_nationkey": "5c5760a0848504a7",
    "supplier.s_phone": "d47501fb31e6f8b5",
    "supplier.s_acctbal": "d39b75008ebcf932",
    "supplier.s_comment": "9ffef0b46c8e9dbc",
    "customer.c_custkey": "95cb81036723962c",
    "customer.c_name": "298c71c7b01eec92",
    "customer.c_address": "8dfca5067e5cde22",
    "customer.c_nationkey": "d515ea7cdcc86554",
    "customer.c_phone": "44442be7cc4c2578",
    "customer.c_acctbal": "0294577e6022e2c9",
    "customer.c_mktsegment": "2eddb45df85e7729",
    "customer.c_comment": "a6c6ed0f335eb44a",
    "part.p_partkey": "e4308a9c237e7022",
    "part.p_name": "958d84f06a0c7630",
    "part.p_mfgr": "3b14be8c7be361d5",
    "part.p_brand": "72409ebe0db76fc6",
    "part.p_type": "e7b3fdf71a269286",
    "part.p_size": "dc6d84b97a80f1d3",
    "part.p_container": "d85951b29eef21fb",
    "part.p_retailprice": "a2688630fed0420b",
    "part.p_comment": "a9dd320429c4a49e",
    "partsupp.ps_partkey": "0405be5b6e3c464c",
    "partsupp.ps_suppkey": "840218a50b3d5580",
    "partsupp.ps_availqty": "e04c2fdb97e6dd4d",
    "partsupp.ps_supplycost": "1c1fcc697a8e835a",
    "partsupp.ps_comment": "64f95637e2f7506f",
    "orders.o_orderkey": "9ffe21a4394db2e0",
    "orders.o_custkey": "f62e5724ff6592c5",
    "orders.o_orderstatus": "1af00f1d2acff833",
    "orders.o_totalprice": "5a89e195a5ab51af",
    "orders.o_orderdate": "187ce81f443f7089",
    "orders.o_orderpriority": "263c8a07923dbdd3",
    "orders.o_clerk": "56355f2de6fec188",
    "orders.o_shippriority": "d6114227b34f048f",
    "orders.o_comment": "0eab4771d8108b16",
    "lineitem.l_orderkey": "86ed81bdf430fadb",
    "lineitem.l_partkey": "ff2e08f56f43e2f0",
    "lineitem.l_suppkey": "82b8bb3b4a4e170c",
    "lineitem.l_linenumber": "ab4f959ce878aa02",
    "lineitem.l_quantity": "30e93bf5f58180f9",
    "lineitem.l_extendedprice": "fea07e7c350ed33c",
    "lineitem.l_discount": "b5bdce119f0b4854",
    "lineitem.l_tax": "f7bac3913961b9d3",
    "lineitem.l_returnflag": "42651d7d3405e208",
    "lineitem.l_linestatus": "674f298577503e4f",
    "lineitem.l_shipdate": "16c9f7afa7d78466",
    "lineitem.l_commitdate": "c730435a51aa3a06",
    "lineitem.l_receiptdate": "96b5f0dff6a0deed",
    "lineitem.l_shipinstruct": "0d0843c52677375b",
    "lineitem.l_shipmode": "b58dfb06cec9edaf",
    "lineitem.l_comment": "4082732738960618",
}

GOLDEN_SF_0002 = {
    "region.r_regionkey": "3eb2a85513260d09",
    "region.r_name": "0bed2a52a27aa17d",
    "region.r_comment": "4fbca0fff72d80ed",
    "nation.n_nationkey": "4f64dd5c90ed27f6",
    "nation.n_name": "1a0ff096197ead2d",
    "nation.n_regionkey": "9f86a262b94c0bd5",
    "nation.n_comment": "26556850da65110d",
    "supplier.s_suppkey": "5b492e577601fa33",
    "supplier.s_name": "fa65f3795dc54db6",
    "supplier.s_address": "8b9bfed261e4729b",
    "supplier.s_nationkey": "6dedbde330579f50",
    "supplier.s_phone": "8238e4e7fc62a327",
    "supplier.s_acctbal": "b5c3d3b489949b6a",
    "supplier.s_comment": "f20ca65e23654500",
    "customer.c_custkey": "016826bf1e153e6a",
    "customer.c_name": "fcc7d1f1cdead4ef",
    "customer.c_address": "014666f29f0b4238",
    "customer.c_nationkey": "0f6c7fb0c6d3ec5f",
    "customer.c_phone": "c5cbbab6d0993cb9",
    "customer.c_acctbal": "f6130dda3e5e90cc",
    "customer.c_mktsegment": "9cf9c6788eeb1547",
    "customer.c_comment": "712bd78b56ea4330",
    "part.p_partkey": "64916202c544f550",
    "part.p_name": "b0925d7e8a9781e2",
    "part.p_mfgr": "8bb44be0dc7c9089",
    "part.p_brand": "8b0b0e0d0080670e",
    "part.p_type": "1c2574b81c567c36",
    "part.p_size": "643e743cc3efeb1e",
    "part.p_container": "2fe90998cdf4a8e3",
    "part.p_retailprice": "d6e3a8031c8d7300",
    "part.p_comment": "686bb6c4a2935858",
    "partsupp.ps_partkey": "68509153ee5f6e55",
    "partsupp.ps_suppkey": "1a4fff957fd0b838",
    "partsupp.ps_availqty": "0bd733b547e9758e",
    "partsupp.ps_supplycost": "3bf93bd0bcf9449c",
    "partsupp.ps_comment": "b2f1d98b5ef8e4b7",
    "orders.o_orderkey": "2e1683172033b104",
    "orders.o_custkey": "6634f3b95ec26b87",
    "orders.o_orderstatus": "bb32694bbf7c6f4d",
    "orders.o_totalprice": "5c55b080d7dd9518",
    "orders.o_orderdate": "559ea358829fca85",
    "orders.o_orderpriority": "59e6f143a56af46d",
    "orders.o_clerk": "1be11c8dc09c1003",
    "orders.o_shippriority": "5284c1bea2c122a8",
    "orders.o_comment": "e00f6111f2770f07",
    "lineitem.l_orderkey": "280626e61ca766b5",
    "lineitem.l_partkey": "eb6cc4457c601b4e",
    "lineitem.l_suppkey": "c6e84c7733e45e5d",
    "lineitem.l_linenumber": "ea45e2cfbfc37b3a",
    "lineitem.l_quantity": "631008f4382135c2",
    "lineitem.l_extendedprice": "5e12c00bc5df444b",
    "lineitem.l_discount": "7925fa8fb4d07f62",
    "lineitem.l_tax": "cbaff614f4614c93",
    "lineitem.l_returnflag": "2b6af92173b6fc32",
    "lineitem.l_linestatus": "babcf51a8601d004",
    "lineitem.l_shipdate": "7158eb04b18c8cf0",
    "lineitem.l_commitdate": "e8de4d78c558291b",
    "lineitem.l_receiptdate": "a6e475b892b464ca",
    "lineitem.l_shipinstruct": "5056def2b7197195",
    "lineitem.l_shipmode": "a210dc338b6fb381",
    "lineitem.l_comment": "de19117782614b36",
}

#: columns whose values the generator takes from a table (or from the
#: referenced primary-key column) instead of boxing per row
INTERNED = [("lineitem", "l_quantity"), ("lineitem", "l_discount"),
            ("lineitem", "l_tax"), ("lineitem", "l_shipdate"),
            ("lineitem", "l_commitdate"), ("lineitem", "l_receiptdate"),
            ("orders", "o_orderdate"), ("lineitem", "l_partkey"),
            ("orders", "o_custkey"), ("orders", "o_clerk")]


def column_digest(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(f"{type(value).__name__}:{value!r}\n".encode())
    return digest.hexdigest()[:16]


def catalog_digest(catalog):
    return {f"{table}.{column}": column_digest(catalog.column(table, column))
            for table in catalog.table_names()
            for column in catalog.schema.table(table).column_names()}


def test_every_column_matches_the_golden_digest(tpch_catalog):
    assert catalog_digest(tpch_catalog) == GOLDEN


def test_every_column_matches_the_golden_digest_at_sf_0002():
    assert catalog_digest(generate_catalog(scale_factor=0.002, seed=SEED)) == \
        GOLDEN_SF_0002


@pytest.mark.parametrize("table,column", INTERNED)
def test_one_object_per_distinct_value(tpch_catalog, table, column):
    values = tpch_catalog.column(table, column)
    distinct = tpch_catalog.statistics.table(table).column(column).num_distinct
    assert len({id(value) for value in values}) == distinct == len(set(values))


def test_foreign_keys_are_the_primary_key_columns_own_objects():
    # sf 0.002: 400 parts and 300 customers, so keys leave CPython's
    # small-int cache and identity is the generator's doing
    catalog = generate_catalog(scale_factor=0.002, seed=SEED)
    p_partkey = catalog.column("part", "p_partkey")
    l_partkey = catalog.column("lineitem", "l_partkey")
    assert max(l_partkey) > 256
    assert all(key is p_partkey[key - 1] for key in l_partkey)
    c_custkey = catalog.column("customer", "c_custkey")
    o_custkey = catalog.column("orders", "o_custkey")
    assert max(o_custkey) > 256
    assert all(key is c_custkey[key - 1] for key in o_custkey)


def test_resident_column_bytes_stay_near_the_logical_footprint(tpch_catalog):
    """Lists plus ``getsizeof`` of each *distinct* object, against the logical
    C-layout size ``memory_footprint`` reports: 1.03x with the value tables,
    1.50x when every row boxed its own floats, dates and keys."""
    seen = set()
    resident = 0
    for table in tpch_catalog.table_names():
        for column in tpch_catalog.schema.table(table).column_names():
            values = tpch_catalog.column(table, column)
            resident += sys.getsizeof(values)
            for value in values:
                if id(value) not in seen:
                    seen.add(id(value))
                    resident += sys.getsizeof(value)
    assert resident <= 1.15 * tpch_catalog.memory_footprint()
