"""An aggregate folds inline: no Python call per input row.

A generated loop that calls a helper per row pays a Python call per row —
what the runtime aggregation tables used to cost every aggregating query.
These gates count ``sys.setprofile`` ``call`` events over one dblab-5 run and
read the generated source of Q1, whose summed columns statistics prove free
of NULLs.
"""
import sys

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.stack.configs import build_config
from repro.tpch.queries import build_query

#: Python calls one run may make whatever its row count: the governor hooks
#: at the head of each top-level loop, the final sort and its key functions
CALL_BUDGET = 100


def _compiled(catalog, query, planner=False):
    config = build_config("dblab-5", planner=planner)
    return QueryCompiler(config.stack, config.flags).compile(
        build_query(query), catalog, query)


def _calls(run):
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("planner", [False, True], ids=["raw", "planned"])
@pytest.mark.parametrize("query", ["Q1", "Q6", "Q17"])
def test_a_run_makes_no_per_row_call(tpch_catalog, query, planner):
    compiled = _compiled(tpch_catalog, query, planner)
    aux = compiled.prepare(tpch_catalog)
    compiled.run(tpch_catalog, aux)   # the first run may warm lazy structures
    assert tpch_catalog.table("lineitem").num_rows > 50 * CALL_BUDGET
    assert _calls(lambda: compiled.run(tpch_catalog, aux)) < CALL_BUDGET


def test_q1_folds_keep_no_null_guard(tpch_catalog):
    """The lowering guards each fold with ``is not None``; folding drops
    every guard, because Q1's columns hold no NULL."""
    statistics = tpch_catalog.statistics
    for column in ("l_quantity", "l_extendedprice", "l_discount", "l_tax"):
        assert statistics.column("lineitem", column).num_nulls == 0
    source = _compiled(tpch_catalog, "Q1").source
    assert "is not None" not in source
    assert "acc_" in source and "_rt.governed_range" in source
