"""Figure 8: memory consumption of the generated code per TPC-H query.

The paper profiles the generated C with Valgrind; here ``tracemalloc`` tracks
the peak allocation of the compiled query body (the five-level configuration,
as in the paper).  The peak is attached to each benchmark entry as
``extra_info['peak_mb']``; ``examples/reproduce_evaluation.py`` prints the
full series (its "Figure 8" section).
"""
import tracemalloc

import pytest

from conftest import BENCH_QUERIES


@pytest.mark.parametrize("query_name", BENCH_QUERIES)
def test_figure8_memory_cell(benchmark, harness, query_name):
    from repro.tpch.queries import build_query
    compiled = harness._compiled(query_name, "dblab-5", build_query(query_name))
    aux = compiled.prepare(harness.catalog)

    def run_with_tracking():
        tracemalloc.start()
        rows = compiled.run(harness.catalog, aux)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return rows, peak

    rows, peak = benchmark.pedantic(run_with_tracking, rounds=2, iterations=1)
    benchmark.extra_info["query"] = query_name
    benchmark.extra_info["peak_mb"] = round(peak / 1e6, 3)
    benchmark.extra_info["rows"] = len(rows)
    assert peak > 0


def test_figure8_memory_stays_bounded(harness, catalog):
    """Sanity version of the paper's observation that query memory stays within
    a small multiple of the input data size."""
    measurements = harness.figure8_memory(queries=BENCH_QUERIES[:3])
    input_bytes = catalog.memory_footprint()
    for query_name, measurement in measurements.items():
        assert measurement.peak_memory_bytes < max(4 * input_bytes, 64_000_000), (
            f"{query_name} allocated more than 4x the input data")
