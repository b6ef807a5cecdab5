"""Table 3: TPC-H execution time per engine configuration.

Each benchmark entry is one (query, engine) cell of the paper's Table 3.  The
engines are the Volcano interpreter, the vectorized engine and the stack
configurations: the one-lowering template expander (standing in for the
pre-DBLAB compiler generation / LegoBase reference column), the DBLAB/LB
stack with 2, 3, 4 and 5 levels, and the TPC-H compliant configuration.

Run with ``pytest benchmarks/bench_table3_tpch.py --benchmark-only``; set
``REPRO_BENCH_FULL=1`` for all 22 queries.  ``examples/reproduce_table3.py``
prints the complete table in the paper's layout.
"""
import pytest

from conftest import BENCH_QUERIES

from repro.bench.harness import ENGINE_NAMES, PLAN_MODES


@pytest.mark.parametrize("mode", PLAN_MODES)
@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("query_name", BENCH_QUERIES)
def test_table3_cell(benchmark, harness, query_name, engine, mode):
    """Time one Table 3 cell: query execution only (compilation not included)."""
    from repro.tpch.queries import build_query
    plan = build_query(query_name)
    if mode == "planned":
        plan = harness.planner.optimize(plan)
    run, _ = harness.runner(query_name, engine, plan)
    rows = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["plan_mode"] = mode
    benchmark.extra_info["rows"] = len(rows)
    assert isinstance(rows, list)


def test_table3_shape_vectorized(harness):
    """The vectorized columnar engine beats the iterator-model interpreter
    wall-clock on the scan-heavy queries (and everywhere, in practice)."""
    results = harness.table3(queries=["Q1", "Q6"],
                             engines=["interpreter", "vectorized"])
    for query_name, per_engine in results.items():
        interp = per_engine["interpreter"].run_seconds
        vectorized = per_engine["vectorized"].run_seconds
        assert vectorized < interp, f"{query_name}: vectorized slower than interpreted"


def test_table3_shape_planner_speedup_vectorized():
    """The acceptance claim of the logical planner: on the join-heavy queries
    Q3, Q5 and Q10 at sf 0.01, pushdown + scan pruning make the optimized
    plan measurably faster than the raw plan on the vectorized engine."""
    from repro.bench.harness import BenchmarkHarness
    from repro.tpch.dbgen import generate_catalog

    catalog = generate_catalog(scale_factor=0.01, seed=20160626)
    harness = BenchmarkHarness(catalog, repetitions=3)
    results = harness.table3_planner(queries=["Q3", "Q5", "Q10"],
                                     engines=["vectorized"])
    for query_name, per_engine in results.items():
        raw = per_engine["vectorized"]["raw"]
        planned = per_engine["vectorized"]["planned"]
        assert planned.rows == raw.rows, f"{query_name}: row count changed"
        assert planned.run_seconds < raw.run_seconds, \
            f"{query_name}: planned {planned.run_millis:.1f}ms not faster " \
            f"than raw {raw.run_millis:.1f}ms"


def test_table3_shape_topk_fusion_vectorized():
    """The TopK acceptance claim: fusing Sort+Limit into the bounded-heap
    ``TopK`` operator speeds up the vectorized engine at sf 0.01 on at least
    two of the four TPC-H queries that end in Sort+Limit (Q2, Q3, Q10, Q18).
    Only the fusion rule is enabled, so the measurement isolates its effect;
    results must stay row-identical (the fusion is order-preserving)."""
    from repro.bench.harness import BenchmarkHarness
    from repro.planner import PlannerOptions
    from repro.tpch.dbgen import generate_catalog

    catalog = generate_catalog(scale_factor=0.01, seed=20160626)
    fusion_only = PlannerOptions(
        constant_folding=False, predicate_pushdown=False,
        equi_join_conversion=False, field_pruning=False,
        join_strategy=False, topk_fusion=True)
    harness = BenchmarkHarness(catalog, repetitions=3,
                               planner_options=fusion_only)
    results = harness.table3_planner(queries=["Q2", "Q3", "Q10", "Q18"],
                                     engines=["vectorized"])
    faster = []
    for query_name, per_engine in results.items():
        raw = per_engine["vectorized"]["raw"]
        fused = per_engine["vectorized"]["planned"]
        assert fused.rows == raw.rows, f"{query_name}: row count changed"
        if fused.run_seconds < raw.run_seconds:
            faster.append(query_name)
    assert len(faster) >= 2, \
        f"TopK fusion faster only on {faster} of Q2/Q3/Q10/Q18"


def test_table3_shape_claims(harness):
    """The relative claims of Section 7.1, asserted on a coarse subset.

    * every compiled configuration beats the iterator-model interpreter, and
    * the four-or-five-level stack is at least as fast (within noise) as the
      naive two-level stack on every query, and substantially faster overall.
    """
    results = harness.table3(queries=BENCH_QUERIES[:4],
                             engines=["interpreter", "dblab-2", "dblab-5"])
    for query_name, per_engine in results.items():
        interp = per_engine["interpreter"].run_seconds
        two = per_engine["dblab-2"].run_seconds
        five = per_engine["dblab-5"].run_seconds
        assert five < interp, f"{query_name}: compiled slower than interpreted"
        assert five < two * 1.25, f"{query_name}: five levels much slower than two"
    speedups = harness.speedups(results, "dblab-2", "dblab-5")
    assert harness.geometric_mean(speedups.values()) > 1.5
