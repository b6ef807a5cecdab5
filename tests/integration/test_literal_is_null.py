"""``IS NULL`` over a literal runs on every engine, raw and planned.

Emitted as ``(0 is None)`` the closure is an ``is`` comparison with a
literal, which CPython's ``compile`` flags with a ``SyntaxWarning`` — a
``SyntaxError`` where warnings are errors.  The closure compiler emits the
answer itself instead.
"""
import warnings

import pytest

from repro.bench.harness import ENGINE_NAMES, BenchmarkHarness
from repro.dsl import qplan as Q
from repro.dsl.expr import is_null, lit
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column

ROWS = [{"x": 1}, {"x": 2}, {"x": 3}]


@pytest.mark.parametrize("planned", [False, True], ids=["raw", "planned"])
@pytest.mark.parametrize("value", [0, 2.5, "x", None], ids=repr)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
def test_is_null_of_a_literal_runs_on_every_engine(engine, value, planned):
    catalog = Catalog()
    catalog.register(ColumnarTable(TableSchema("t", [int_column("x")]),
                                   {"x": [row["x"] for row in ROWS]}))
    harness = BenchmarkHarness(catalog)
    plan = Q.Select(Q.Scan("t"), is_null(lit(value)))
    if planned:
        plan = harness.planner.optimize(plan)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        rows = harness.run_once(f"is_null_{engine}", engine, plan)
    assert rows == (ROWS if value is None else [])
