"""A plan holding an infinite or NaN float literal runs on every engine.

``inf`` and ``nan`` have no Python literal: emitted as ``repr(value)`` they
are free names that raise ``NameError`` when the closure or the generated
query runs.  Both code emitters spell them ``float('inf')`` / ``float('nan')``.
"""
import math

import pytest

from repro.bench.harness import ENGINE_NAMES, BenchmarkHarness
from repro.dsl import qplan as Q
from repro.dsl.expr import col, in_list, lit
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column

XS = [1, 2, 3]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_a_non_finite_literal_runs_on_every_engine(engine, value):
    catalog = Catalog()
    catalog.register(ColumnarTable(TableSchema("t", [int_column("x")]), {"x": XS}))
    plan = Q.Project(Q.Select(Q.Scan("t"), col("x") != lit(value)),
                     [("x", col("x")), ("above", lit(value) > col("x"))])
    rows = BenchmarkHarness(catalog).run_once("non_finite", engine, plan)
    assert rows == [{"x": x, "above": value > x} for x in XS]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_a_non_finite_value_in_a_list_runs_on_every_engine(engine, value):
    catalog = Catalog()
    catalog.register(ColumnarTable(TableSchema("t", [int_column("x")]), {"x": XS}))
    plan = Q.Select(Q.Scan("t"), in_list(col("x"), [value, 2]))
    assert BenchmarkHarness(catalog).run_once("in_list", engine, plan) == [{"x": 2}]
