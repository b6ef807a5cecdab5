"""The generator is pinned, and what it loads is one object per distinct value.

``GOLDEN`` holds a per-column digest — values, order *and* ``type`` — of
``generate_catalog(0.001, 20160626)`` computed on the commit before dbgen
started drawing from value tables (PR 15), so any rewrite of the generator is
provably identity-only: it may change which *object* a row holds, never what
the row reads.  ``GOLDEN_SF_0002`` is the same digest at sf 0.002 (computed
before text columns were written as word codes): there part and customer
keys leave CPython's small-int cache and a part key is a 9-bit draw, so a
wrong width in the written-out draws of the order loop shows.  Both read
every column through ``Catalog.column``, as every reader does.
"""
import hashlib
import sys

import pytest

from repro.tpch.dbgen import generate_catalog

SEED = 20160626   # with sf 0.001: the session-wide ``tpch_catalog`` fixture

GOLDEN = {
    "region.r_regionkey": "3eb2a85513260d09",
    "region.r_name": "0bed2a52a27aa17d",
    "region.r_comment": "8609ff825b8b4153",
    "nation.n_nationkey": "4f64dd5c90ed27f6",
    "nation.n_name": "1a0ff096197ead2d",
    "nation.n_regionkey": "9f86a262b94c0bd5",
    "nation.n_comment": "9722bcdeeaca55f5",
    "supplier.s_suppkey": "920a38ff3db926bf",
    "supplier.s_name": "b611fb24c8143805",
    "supplier.s_address": "b9523f241fa11cf1",
    "supplier.s_nationkey": "7972f4fd2771bc4d",
    "supplier.s_phone": "cd0fbe190f1163ea",
    "supplier.s_acctbal": "136987cef5bf7111",
    "supplier.s_comment": "7c0242ce3fe6a735",
    "customer.c_custkey": "95cb81036723962c",
    "customer.c_name": "298c71c7b01eec92",
    "customer.c_address": "47874f5f25817b3e",
    "customer.c_nationkey": "0847ab33ab07f9d3",
    "customer.c_phone": "5e7784a7c3d0d162",
    "customer.c_acctbal": "18649e54fc85a467",
    "customer.c_mktsegment": "1ef24e6470d9ae32",
    "customer.c_comment": "71c16b6efc22b090",
    "part.p_partkey": "e4308a9c237e7022",
    "part.p_name": "586cd0c93f580450",
    "part.p_mfgr": "ab1b1bd0753de354",
    "part.p_brand": "ffe5211f5596f285",
    "part.p_type": "c00e02b1646731ef",
    "part.p_size": "863911bb93d0f7c3",
    "part.p_container": "78221b10c6bb51b0",
    "part.p_retailprice": "a2688630fed0420b",
    "part.p_comment": "98b3f8e23c5f133d",
    "partsupp.ps_partkey": "0405be5b6e3c464c",
    "partsupp.ps_suppkey": "3231512224276115",
    "partsupp.ps_availqty": "eabb60049e72248c",
    "partsupp.ps_supplycost": "d1445eec86cd2969",
    "partsupp.ps_comment": "e85f714bd0c5ff01",
    "orders.o_orderkey": "9ffe21a4394db2e0",
    "orders.o_custkey": "0ee38e3f8840490a",
    "orders.o_orderstatus": "7018fecfa136bba7",
    "orders.o_totalprice": "4683f947c6355c92",
    "orders.o_orderdate": "ab699e8097117c6c",
    "orders.o_orderpriority": "be45953c5c00e3d8",
    "orders.o_clerk": "ea9bea7b10230e77",
    "orders.o_shippriority": "d6114227b34f048f",
    "orders.o_comment": "fce496344e1005b5",
    "lineitem.l_orderkey": "c8f94de0fc9ff1ca",
    "lineitem.l_partkey": "810dcee2a58fcab8",
    "lineitem.l_suppkey": "c4f2aa04926fe327",
    "lineitem.l_linenumber": "30deac654d555fc0",
    "lineitem.l_quantity": "3ced2572ca35bd3b",
    "lineitem.l_extendedprice": "2940ebe1a2247551",
    "lineitem.l_discount": "d420b249258377dc",
    "lineitem.l_tax": "68f6b069ac83acc1",
    "lineitem.l_returnflag": "fe6c436a03770f4f",
    "lineitem.l_linestatus": "1bdfdaab6937cb44",
    "lineitem.l_shipdate": "aa65792cc02cb060",
    "lineitem.l_commitdate": "84cefc039f4e06d7",
    "lineitem.l_receiptdate": "2639db0759aea9be",
    "lineitem.l_shipinstruct": "dd625876f6a63382",
    "lineitem.l_shipmode": "913a26aef571a7da",
    "lineitem.l_comment": "eac3bfdbc8686d01",
}

GOLDEN_SF_0002 = {
    "region.r_regionkey": "3eb2a85513260d09",
    "region.r_name": "0bed2a52a27aa17d",
    "region.r_comment": "8609ff825b8b4153",
    "nation.n_nationkey": "4f64dd5c90ed27f6",
    "nation.n_name": "1a0ff096197ead2d",
    "nation.n_regionkey": "9f86a262b94c0bd5",
    "nation.n_comment": "9722bcdeeaca55f5",
    "supplier.s_suppkey": "5b492e577601fa33",
    "supplier.s_name": "fa65f3795dc54db6",
    "supplier.s_address": "04409382c7233c44",
    "supplier.s_nationkey": "a4a07c1badd9269d",
    "supplier.s_phone": "2f7514de45be2ad7",
    "supplier.s_acctbal": "2c28087ce001680f",
    "supplier.s_comment": "a9f473a9b0555c46",
    "customer.c_custkey": "016826bf1e153e6a",
    "customer.c_name": "fcc7d1f1cdead4ef",
    "customer.c_address": "e021604484193fd7",
    "customer.c_nationkey": "1dc264733c2407fc",
    "customer.c_phone": "cff30d3e157005f2",
    "customer.c_acctbal": "6083492e60031fff",
    "customer.c_mktsegment": "b9f50ead138a499d",
    "customer.c_comment": "91120697020bae0c",
    "part.p_partkey": "64916202c544f550",
    "part.p_name": "dfdd220c901eb628",
    "part.p_mfgr": "5d91717fd184a012",
    "part.p_brand": "15140c779a08b2eb",
    "part.p_type": "ff9550578c0f12a5",
    "part.p_size": "e573a20cb61953e9",
    "part.p_container": "b934b7a584fe614e",
    "part.p_retailprice": "d6e3a8031c8d7300",
    "part.p_comment": "fa6d46af4b1da013",
    "partsupp.ps_partkey": "68509153ee5f6e55",
    "partsupp.ps_suppkey": "157fc4e23702af73",
    "partsupp.ps_availqty": "29f17d89ca708b7a",
    "partsupp.ps_supplycost": "15dcc85594cc83e3",
    "partsupp.ps_comment": "098aa37dde608b10",
    "orders.o_orderkey": "2e1683172033b104",
    "orders.o_custkey": "4f9b567b2a3c6f8a",
    "orders.o_orderstatus": "3311fa70a8c22169",
    "orders.o_totalprice": "b02bf5c2b3e32b15",
    "orders.o_orderdate": "3d51463bcf50841b",
    "orders.o_orderpriority": "e39c2dda0b64b9bf",
    "orders.o_clerk": "d347c09569333ae0",
    "orders.o_shippriority": "5284c1bea2c122a8",
    "orders.o_comment": "e5d8f480b4c6dba2",
    "lineitem.l_orderkey": "d1a2618878f4dac9",
    "lineitem.l_partkey": "c362e628a9b8ce09",
    "lineitem.l_suppkey": "c1a3de559f2ea509",
    "lineitem.l_linenumber": "e8429c129dc51e16",
    "lineitem.l_quantity": "51fd538d895e1399",
    "lineitem.l_extendedprice": "6b841f3025476b85",
    "lineitem.l_discount": "9dc05250b530b50b",
    "lineitem.l_tax": "2b22de85ee6f3492",
    "lineitem.l_returnflag": "bae27a63c491897c",
    "lineitem.l_linestatus": "c0a5019567f7ae21",
    "lineitem.l_shipdate": "a39433733cdf5299",
    "lineitem.l_commitdate": "2d01a1ebb30c533a",
    "lineitem.l_receiptdate": "b992e9c21c040267",
    "lineitem.l_shipinstruct": "f79a7af7a672fe6e",
    "lineitem.l_shipmode": "a997cc0445c9b6bc",
    "lineitem.l_comment": "2ff4207a3781cc49",
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
