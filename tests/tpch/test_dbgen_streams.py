"""Each text column is its own seed stream, drawn by its first reader.

dbgen seeds every comment and address column from ``(seed, column)`` and
draws it when it is first read, and every other column from the main stream,
which no text draw touches.  So set-up draws no word, reading the text
columns in any order — or only some, or none — gives the same columns, and a
comment no query reads is never drawn.
"""
import random

import pytest

from repro.bench.harness import BenchmarkHarness
from repro.storage.layouts import TextColumn
from repro.tpch.dbgen import _special_requests, draw_texts, generate_catalog
from repro.tpch.queries import QUERY_NAMES, build_query

from test_dbgen_identity import GOLDEN, SEED, column_digest

#: the ten text columns, in schema order
TEXT_COLUMNS = [("region", "r_comment"), ("nation", "n_comment"),
                ("supplier", "s_address"), ("supplier", "s_comment"),
                ("customer", "c_address"), ("customer", "c_comment"),
                ("part", "p_comment"), ("partsupp", "ps_comment"),
                ("orders", "o_comment"), ("lineitem", "l_comment")]
#: the text columns none of the 22 queries reads
UNREAD = {("region", "r_comment"), ("nation", "n_comment"), ("part", "p_comment"),
          ("partsupp", "ps_comment"), ("lineitem", "l_comment")}


def drawn(catalog):
    """The text columns whose codes were drawn (a decoded one is a list)."""
    return {(table, column) for table, column in TEXT_COLUMNS
            if type(values := catalog.table(table).columns[column]) is not TextColumn
            or "codes" in values._memo}


def digests(catalog, keys):
    return {key: column_digest(catalog.column(*key)) for key in keys}


def test_the_ten_text_columns_are_undrawn_after_set_up():
    catalog = generate_catalog(scale_factor=0.001, seed=SEED)
    assert sorted(TEXT_COLUMNS) == sorted(
        (table, column) for table in catalog.table_names()
        for column, values in catalog.table(table).columns.items()
        if type(values) is TextColumn)
    assert drawn(catalog) == set()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_text_columns_read_in_any_order_or_in_part_are_the_same(order):
    keys = list(TEXT_COLUMNS)
    random.Random(order).shuffle(keys)
    catalog = generate_catalog(scale_factor=0.001, seed=SEED)
    some = keys[:3 + order * 3]
    assert digests(catalog, some) == {key: GOLDEN[".".join(key)] for key in some}
    assert drawn(catalog) == set(some)


def test_non_text_columns_are_the_same_whether_or_not_text_was_read():
    untouched = generate_catalog(scale_factor=0.001, seed=SEED)
    read_first = generate_catalog(scale_factor=0.001, seed=SEED)
    digests(read_first, TEXT_COLUMNS)
    others = [tuple(key.split(".")) for key in GOLDEN
              if tuple(key.split(".")) not in TEXT_COLUMNS]
    assert digests(untouched, others) == digests(read_first, others) == {
        key: GOLDEN[".".join(key)] for key in others}
    assert drawn(untouched) == set()


def test_a_text_column_is_the_stream_of_its_seed_and_name():
    catalog = generate_catalog(scale_factor=0.001, seed=SEED)
    rows = catalog.table("orders").num_rows
    assert catalog.table("orders").columns["o_comment"].coded() == draw_texts(
        random.Random(f"{SEED}/o_comment"), rows, 5, 10, _special_requests)


@pytest.mark.parametrize("engine", ["dblab-5", "vectorized"])
def test_the_planned_queries_draw_no_column_they_do_not_read(engine):
    catalog = generate_catalog(scale_factor=0.001, seed=SEED)
    harness = BenchmarkHarness(catalog, engines=(engine,))
    for name in QUERY_NAMES:
        harness.run_once(name, engine, harness.planner.optimize(build_query(name)))
    assert drawn(catalog) == set(TEXT_COLUMNS) - UNREAD
