"""A derived entry stays resident because it repeats.

The tier-1 gate for the segmented derived cache (``repro.storage.derived``),
beside the access layer's resident-bytes gate: warm the 22 TPC-H queries the
way the server does, then plan and compile 600 never-repeated plans the way
the benchmark's ``adhoc_cold`` workload makes them (shifted literals plus a
``key >= -serial`` guard) through the executor's own planner and
compiled-tier compiler.  With one plain 512-entry LRU per kind (PR 20) that
burst evicted all 22 warmed queries and left 512 one-shot entries per kind:
13.6 MB retained with the whole burst traced, against 1.7 MB with the two
segments (0.8 MB with the tail traced, as here).
"""
import gc
import os
import random
import sys
import tracemalloc

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.robustness.fallback import HardenedExecutor
from repro.robustness.incidents import IncidentLog
from repro.storage.derived import COMPILED, PLANS, PROBATION
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import QUERY_NAMES, build_query

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "servebench"))
from workloads import DEFAULT_SEED, substitute_literals  # noqa: E402

BURST = 600
#: the burst's tail compiled under tracemalloc (tracing all 600 adds 20 s).
#: Everything the cache keeps of the burst was built in its last
#: ``PROBATION`` compiles, so it is all allocated under the trace.
TRACED = 2 * PROBATION


@pytest.fixture(scope="module")
def burst():
    """``(executor, catalog, misses after warm-up, retained bytes)``."""
    QueryCompiler.clear_cache()
    catalog = generate_catalog(scale_factor=0.001, seed=20160626)
    executor = HardenedExecutor(catalog, incidents=IncidentLog())
    for name in QUERY_NAMES:
        executor.warm(build_query(name), name)
    warmed_misses = QueryCompiler.cache_stats.misses
    shapes = {name: build_query(name) for name in QUERY_NAMES}
    rng = random.Random(DEFAULT_SEED)
    compiler = executor._compilers["access"]
    for serial in range(1, BURST + 1):
        if serial == BURST - TRACED + 1:
            gc.collect()
            tracemalloc.start()
        name = QUERY_NAMES[serial % len(QUERY_NAMES)]
        plan = substitute_literals(shapes[name], rng, serial)
        compiler.compile(executor._plan(plan, "access"), catalog, name)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    yield executor, catalog, warmed_misses, retained
    QueryCompiler.clear_cache()


def test_every_warmed_query_is_still_cached_and_recompiles_zero_times(burst):
    executor, _, warmed_misses, _ = burst
    misses = QueryCompiler.cache_stats.misses
    assert misses == warmed_misses + BURST
    assert all(executor.warm(build_query(name), name) == 0.0
               for name in QUERY_NAMES)
    assert QueryCompiler.cache_stats.misses == misses


def test_each_kind_holds_the_warmed_queries_and_a_full_probation(burst):
    _, catalog, _, _ = burst
    derived = catalog.access_layer().derived
    for kind in (PLANS, COMPILED):
        assert derived.entry_count(kind) == len(QUERY_NAMES) + PROBATION, kind
        assert len(derived._protected[kind]) == len(QUERY_NAMES), kind


def test_what_the_burst_leaves_behind_fits_in_4_mb(burst):
    retained = burst[3]
    assert retained <= 4e6, f"{retained / 1e6:.2f} MB"
