"""Hash builds over base tables are the catalog's resident partitions.

With ``catalog_access_layer`` on (dblab-4/5, the serving tier) a partitioned
MultiMap build is a lookup of ``AccessLayer.partition(table, column)`` — one
index of row positions per ``(table, column)``, whatever payload columns a
query reads — so ``prepare`` does no per-request work at all.  This suite
holds the three things that buys and the two it must not cost:

* parity on every join shape that reaches the probe (empty buckets, a
  filtered build side re-filtered at the probe, inner/semi/anti/outer), with
  the flag on and off;
* each partition built exactly once per catalog generation, whatever the
  number of queries, requests and threads — and rebuilt only for the table a
  reload replaced;
* ``prepare`` of every generated dblab-5 query free of loops (the CI gate
  that needs no stopwatch) — and of dblab-4/5 in the ladder's ``no_access``
  mode, where no resident partition serves and the build stays per-query;
* a dropped catalog freed at once, by reference counting alone.
"""
import ast
import asyncio
import gc
import sys
import threading
import weakref

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.volcano import execute
from repro.planner import Planner, PlannerOptions
from repro.robustness.faults import (DataCorruptionFault, FaultPlan,
                                     FaultSpec, inject)
from repro.robustness.fallback import HardenedExecutor
from repro.robustness.incidents import IncidentLog
from repro.server import QueryServer
from repro.stack.configs import build_config
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import (TableSchema, float_column, int_column,
                                  string_column)
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import QUERY_NAMES, build_query


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


def partition_builds(catalog):
    return {key: count for key, count in catalog.access_layer().build_counts.items()
            if key[0] == "partition"}


# ---------------------------------------------------------------------------
# Parity on the join shapes that reach a partition probe
# ---------------------------------------------------------------------------
def _shop_catalog():
    """cust(c_id PK) <- ord(o_cust FK): customers 2 and 5 have no orders
    (empty buckets), customer 3 has several, and ``o_tag`` gives the build
    side something to filter on."""
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("cust", [int_column("c_id"), string_column("c_name")],
                    primary_key=("c_id",)),
        {"c_id": [1, 2, 3, 4, 5, 6],
         "c_name": ["ann", "bob", "cy", "dee", "eve", "flo"]}))
    catalog.register(ColumnarTable(
        TableSchema("ord", [int_column("o_id"),
                            int_column("o_cust", references=("cust", "c_id")),
                            string_column("o_tag"), float_column("o_total")],
                    primary_key=("o_id",)),
        {"o_id": [10, 11, 12, 13, 14, 15, 16],
         "o_cust": [3, 1, 3, 6, 4, 3, 1],
         "o_tag": ["x", "y", "y", "x", "y", "x", "x"],
         "o_total": [5.0, 1.5, 2.5, 9.0, 4.0, 7.0, 3.0]}))
    return catalog


def _probe_plans():
    orders, tagged = Q.Scan("ord"), Q.Select(Q.Scan("ord"), col("o_tag") == "x")
    customers = Q.Scan("cust")
    plans = {}
    for label, build in (("plain", orders), ("filtered", tagged)):
        # the build side is the multi-valued FK column: a real partition
        plans[f"inner-{label}"] = Q.HashJoin(
            build, customers, col("o_cust"), col("c_id"))
        for kind in ("leftsemi", "leftanti", "leftouter"):
            plans[f"{kind}-{label}"] = Q.HashJoin(
                customers, build, col("c_id"), col("o_cust"), kind=kind)
    plans["semi-residual"] = Q.HashJoin(
        customers, orders, col("c_id"), col("o_cust"), kind="leftsemi",
        residual=col("o_total") > 4.0)
    # the build side is the primary key: the unique-key index serves it
    plans["inner-unique"] = Q.HashJoin(
        customers, orders, col("c_id"), col("o_cust"))
    return plans


PROBE_PLANS = _probe_plans()


class TestProbeParity:
    @pytest.mark.parametrize("config_name", ["dblab-4", "dblab-5"])
    @pytest.mark.parametrize("shape", sorted(PROBE_PLANS))
    def test_rows_match_the_interpreter(self, shape, config_name):
        catalog = _shop_catalog()
        plan = PROBE_PLANS[shape]
        config = build_config(config_name)
        rows = {}
        for access in (True, False):
            compiled = QueryCompiler(
                config.stack, config.flags.copy_with(catalog_access_layer=access)
            ).compile(plan, catalog, shape)
            rows[access] = compiled.run(catalog)
            served = "_rt.catalog_partition(" in compiled.source
            assert served == access, compiled.source
        assert canon(rows[True]) == canon(execute(plan, catalog))
        # ascending positions are the scan order the record buckets had: the
        # resident partition changes no row and no emission order
        assert rows[True] == rows[False]

    def test_every_payload_set_shares_one_partition(self):
        """Three queries reading different payload columns of ``ord``: one
        build, and their buckets hold positions, not copied records."""
        catalog = _shop_catalog()
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        for shape in ("inner-plain", "leftsemi-filtered", "semi-residual"):
            compiler.compile(PROBE_PLANS[shape], catalog, shape).run(catalog)
        assert partition_builds(catalog) == {("partition", "ord", "o_cust"): 1}
        index = catalog.access_layer().partition("ord", "o_cust")
        assert index.offset == 1
        assert index.slots == [[1, 6], [], [0, 2, 5], [4], [], [3]]


# ---------------------------------------------------------------------------
# Built once per catalog generation
# ---------------------------------------------------------------------------
class TestBuildOnce:
    def test_three_sweeps_and_a_reload(self):
        catalog = generate_catalog(scale_factor=0.001, seed=20160626)
        executor = HardenedExecutor(catalog, incidents=IncidentLog())
        for _ in range(3):
            for name in QUERY_NAMES:
                report = executor.execute(build_query(name), name)
                assert (report.tier, report.plan_mode) == ("compiled", "access")
        builds = partition_builds(catalog)
        # lineitem by order serves Q4 and both probes of Q21, orders by
        # customer serves Q13 and Q22: one structure each (which further
        # partitions exist depends on the join orders the planner picks)
        assert {("partition", "lineitem", "l_orderkey"),
                ("partition", "orders", "o_custkey")} <= set(builds)
        assert set(builds.values()) == {1}

        catalog.register(catalog.table("lineitem"))
        for name in QUERY_NAMES:
            executor.execute(build_query(name), name)
        assert partition_builds(catalog) == {
            key: count + (key[1] == "lineitem") for key, count in builds.items()}
        assert executor.incidents.records() == []

    @pytest.mark.parametrize("workers", [2, 8])
    def test_threads_racing_the_first_request_build_once(self, workers):
        catalog = generate_catalog(scale_factor=0.001, seed=20160626)
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(
            build_query("Q4"), catalog, "Q4")
        expected = execute(build_query("Q4"), catalog)
        barrier = threading.Barrier(workers)
        results, errors = [], []

        def first_request():
            try:
                barrier.wait(timeout=10)
                results.append(compiled.run(catalog))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=first_request) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force switches inside the build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [canon(rows) for rows in results] == [canon(expected)] * workers
        # a lost update or a torn memo would show as a second build
        assert partition_builds(catalog) == \
            {("partition", "lineitem", "l_orderkey"): 1}

    def test_a_faulted_first_request_leaves_no_half_built_memo(self):
        catalog = generate_catalog(scale_factor=0.001, seed=20160626)
        executor = HardenedExecutor(catalog, incidents=IncidentLog())
        faults = FaultPlan([FaultSpec(site="access.partition",
                                      error=DataCorruptionFault,
                                      fires_on=(1,))], seed=0)
        with inject(faults):
            report = executor.execute(build_query("Q4"), "Q4")
        assert (report.tier, report.plan_mode) == ("compiled", "no_access")
        assert partition_builds(catalog) == {}
        # the next request finds nothing half-built: it builds, once
        report = executor.execute(build_query("Q4"), "Q4")
        assert (report.tier, report.plan_mode) == ("compiled", "access")
        assert canon(report.rows) == canon(execute(build_query("Q4"), catalog))
        assert partition_builds(catalog) == \
            {("partition", "lineitem", "l_orderkey"): 1}


# ---------------------------------------------------------------------------
# prepare() is a handful of lookups: the gate that needs no stopwatch
# ---------------------------------------------------------------------------
def _prepare_of(source):
    (prepare,) = [node for node in ast.parse(source).body
                  if isinstance(node, ast.FunctionDef) and node.name == "prepare"]
    return prepare


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def _loops_in_prepare(source):
    return [type(node).__name__ for node in ast.walk(_prepare_of(source))
            if isinstance(node, _LOOPS)]


class TestPrepareIsLoopFree:
    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "raw"])
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_dblab5_prepare_has_no_loop(self, tpch_catalog, query_name, planner):
        config = build_config("dblab-5", planner=planner)
        assert config.flags.catalog_access_layer
        compiled = QueryCompiler(config.stack, config.flags).compile(
            build_query(query_name), tpch_catalog, query_name)
        assert _loops_in_prepare(compiled.source) == [], compiled.source

    @pytest.mark.parametrize("planner", [True, False], ids=["planned", "raw"])
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    @pytest.mark.parametrize("config_name", ["dblab-4", "dblab-5"])
    def test_no_access_prepare_has_no_loop(self, tpch_catalog, config_name,
                                           query_name, planner):
        """The ladder's ``no_access`` mode: planned without access paths,
        compiled without the access layer.  Nothing serves a loading-time
        structure, and nothing builds one per request either."""
        config = build_config(config_name)
        plan = build_query(query_name)
        if planner:
            plan = Planner.for_catalog(
                tpch_catalog, PlannerOptions.no_access_paths()).optimize(plan)
        compiled = QueryCompiler(config.stack, config.flags.copy_with(
            catalog_access_layer=False)).compile(plan, tpch_catalog, query_name)
        assert _loops_in_prepare(compiled.source) == [], compiled.source

    def test_the_gate_sees_the_loop_it_guards_against(self):
        """A ``prepare`` that builds its own structure is what the gate
        exists to catch: a build loop, or a comprehension doing the same."""
        for build in ("    for i in range(len(col)):\n        part.append(i)",
                      "    part = [i for i in range(len(col))]"):
            source = ("def prepare(db, _rt):\n    col = db.column('t', 'k')\n"
                      "    part = []\n" + build + "\n    return {'part': part}\n\n"
                      "def query(db, _rt, aux):\n    return []\n")
            assert _loops_in_prepare(source), source

    def test_q21_prepare_names_one_lineitem_partition(self, tpch_catalog):
        """Q21 probes lineitem-by-order twice, with two payload sets."""
        config = build_config("dblab-5", planner=True)
        compiled = QueryCompiler(config.stack, config.flags).compile(
            build_query("Q21"), tpch_catalog, "Q21")
        fetches = [node for node in ast.walk(_prepare_of(compiled.source))
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "catalog_partition"
                   and [arg.value for arg in node.args[1:3]]
                   == ["lineitem", "l_orderkey"]]
        assert len(fetches) == 1, compiled.source


# ---------------------------------------------------------------------------
# The catalog owns all of it for exactly its own lifetime
# ---------------------------------------------------------------------------
class TestDroppedCatalogIsFreedAtOnce:
    def test_served_catalog_dies_without_a_gc_pass(self):
        async def serve(catalog):
            queries = {name: build_query(name) for name in QUERY_NAMES}
            server = QueryServer(catalog, queries=queries, warmup=list(queries))
            await server.start()
            for name in queries:
                response = await server.submit(name)
                assert response.status == "ok", response
            await server.drain()

        gc.collect()
        gc.disable()
        try:
            catalog = generate_catalog(scale_factor=0.001, seed=7)
            alive = weakref.ref(catalog)
            layer = weakref.ref(catalog.access_layer())
            asyncio.run(serve(catalog))
            assert partition_builds(catalog)  # it owned resident partitions
            del catalog
            # no gc.collect(): reference counting alone must free the columns,
            # the access structures, the plans and the compiled queries
            assert alive() is None
            assert layer() is None
        finally:
            gc.enable()

    def test_direct_engine_catalog_dies_without_a_gc_pass(self):
        """The direct engines rewrite string predicates onto dictionary codes
        (``rewrite_string_predicates``) — once a self-recursive closure whose
        cycle pinned the access layer until a GC pass."""
        from repro.engine import VectorizedEngine
        from repro.engine.volcano import VolcanoEngine

        gc.collect()
        gc.disable()
        try:
            catalog = generate_catalog(scale_factor=0.001, seed=7)
            alive = weakref.ref(catalog)
            layer = weakref.ref(catalog.access_layer())
            for engine in (VectorizedEngine(catalog), VolcanoEngine(catalog)):
                for name in ("Q3", "Q12", "Q16", "Q19"):   # =, IN, LIKE, and/or
                    assert engine.execute(build_query(name)) is not None
            assert any(kind == "dictionary"
                       for kind, *_ in catalog.access_layer().build_counts)
            del catalog, engine
            assert alive() is None
            assert layer() is None
        finally:
            gc.enable()
