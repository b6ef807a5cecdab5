"""All-22 contract parity for the access-aware compiled stacks.

The compiled lineup now consumes the same catalog-resident physical access
layer as the direct engines (PR 4) and shares repeated subplans at the IR
level.  This suite proves the closed architecture loop end to end: every
TPC-H query, planner-optimized and pushed through ``dblab-5`` and
``tpch-compliant`` with subplan sharing enabled and the access layer on
(builds over base tables are the catalog's resident partitions) and off (the
hoisted build loops of the ``no_access`` ladder mode), returns rows
equivalent (under the raw plan's sort contract) to the Volcano reference
executing the raw plan — and the whole 22-query run builds every access
structure exactly once.
"""
import functools

import pytest

from repro.bench.harness import (ENGINE_NAMES, BenchmarkHarness,
                                 assert_rows_equivalent)
from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.volcano import VolcanoEngine
from repro.planner import Planner, sort_contract
from repro.stack.configs import build_config
from repro.tpch.queries import QUERY_NAMES, build_query

CONFIGS = ("dblab-5", "tpch-compliant")


@pytest.fixture(scope="module")
def planned(tpch_catalog):
    planner = Planner(tpch_catalog)
    return {name: planner.optimize(build_query(name)) for name in QUERY_NAMES}


@pytest.fixture(scope="module")
def reference(tpch_catalog):
    engine = VolcanoEngine(tpch_catalog)
    return {name: engine.execute(build_query(name)) for name in QUERY_NAMES}


@functools.lru_cache(maxsize=None)
def _compilers(access):
    built = {}
    for config_name in CONFIGS:
        config = build_config(config_name)
        flags = config.flags.copy_with(catalog_access_layer=access,
                                       subplan_sharing=True)
        built[config_name] = QueryCompiler(config.stack, flags)
    return built


@pytest.fixture(scope="module")
def compilers(tpch_catalog):
    return _compilers(access=True)


@pytest.mark.parametrize("access", [True, False], ids=["access", "no_access"])
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_all22_contract_parity(tpch_catalog, planned, reference,
                               config_name, query_name, access):
    compiled = _compilers(access)[config_name].compile(planned[query_name],
                                                       tpch_catalog, query_name)
    rows = compiled.run(tpch_catalog)
    assert_rows_equivalent(reference[query_name], rows,
                           sort_keys=sort_contract(build_query(query_name)),
                           context=f"{config_name}/{query_name}")


def test_access_structures_build_once_across_compiled_runs(tpch_catalog,
                                                           planned, compilers):
    """One shared access layer serves both compiled configs and repeated
    prepare()/run() cycles without ever rebuilding a structure."""
    layer = tpch_catalog.access_layer()
    compiled = [compilers["dblab-5"].compile(planned[name], tpch_catalog, name)
                for name in ("Q6", "Q12", "Q14", "Q19")]
    for query in compiled:
        query.prepare(tpch_catalog)
        query.run(tpch_catalog)
    counts = dict(layer.build_counts)
    assert counts[("key_index", "orders", "o_orderkey")] == 1
    # a second full prepare+run cycle, plus the compliant config, reuses
    # every structure: the build counters do not move
    for query in compiled:
        query.prepare(tpch_catalog)
        query.run(tpch_catalog)
    compliant = compilers["tpch-compliant"].compile(planned["Q12"],
                                                    tpch_catalog, "Q12")
    compliant.run(tpch_catalog)
    assert layer.build_counts == counts


_AGG_KEY_SHAPES = {
    "global": (),
    "dense_int_key": ("o_custkey",),
    "string_key": ("o_orderpriority",),
    "composite_key": ("o_orderstatus", "o_orderpriority"),
}


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("shape", list(_AGG_KEY_SHAPES))
def test_every_aggregate_kind_on_every_key_shape(tpch_catalog, shape, engine):
    """Each aggregate kind under each grouping-key shape, on every engine:
    the shapes pick different aggregation tables in the compiled stacks (a
    single dense integer key lowers to the dense array), and every table
    must fold every kind."""
    specs = [Q.AggSpec("sum", col("o_totalprice"), "total"),
             Q.AggSpec("count", None, "n"),
             Q.AggSpec("avg", col("o_totalprice"), "mean"),
             Q.AggSpec("min", col("o_orderdate"), "first"),
             Q.AggSpec("max", col("o_orderdate"), "last"),
             Q.AggSpec("count_distinct", col("o_clerk"), "clerks")]
    assert {spec.kind for spec in specs} == set(Q.AGG_KINDS)
    plan = Q.Agg(Q.Scan("orders"),
                 [(name, col(name)) for name in _AGG_KEY_SHAPES[shape]], specs)
    rows = BenchmarkHarness(tpch_catalog).run_once(f"agg_{shape}", engine, plan)
    assert_rows_equivalent(VolcanoEngine(tpch_catalog).execute(plan), rows,
                           context=f"{engine}/{shape}")
