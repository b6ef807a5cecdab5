"""Chaos parity: every TPC-H query, under injected faults, still answers
exactly the interpreter's answer — possibly on a degraded tier or plan.

Each test installs a seeded, deterministic :class:`FaultPlan` and runs the
query through the :class:`HardenedExecutor` ladder.  The contract checked
throughout is the reproduction's core claim under failure:

* the rows are equivalent to the clean Volcano reference under the query's
  order contract (:func:`repro.bench.harness.rows_equivalent`), and
* every degradation the ladder performed is visible in the incident log —
  no silent fallback, no silent wrong answer.

``CHAOS_SEED`` (environment) feeds the probabilistic fault-storm test so CI
can sweep a fixed seed matrix; the default is seed 0.
"""
import os

import pytest

from repro.bench.harness import assert_rows_equivalent
from repro.codegen.compiler import QueryCompiler
from repro.engine.volcano import execute
from repro.planner import sort_contract
from repro.robustness.faults import (DataCorruptionFault, EngineFault,
                                     FaultPlan, FaultSpec, TransientFault,
                                     inject)
from repro.robustness.fallback import HardenedExecutor
from repro.robustness.governor import BudgetExceeded
from repro.robustness.incidents import IncidentLog
from repro.storage.access import AccessError
from repro.tpch.queries import QUERY_NAMES, build_query

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Queries whose access-path plan degrades when the named structure breaks
#: (measured against the deterministic sf=0.001/seed=20160626 catalog: the
#: planner only chooses an IndexJoin / zone-map pruned scan where the
#: statistics justify one, and only a *used* structure can fault).  The
#: compiled tier also probes the unique-key index wherever a hash build over
#: a primary key became the catalog's resident slot array.
KEY_INDEX_DEPENDENT = {"Q2", "Q3", "Q5", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12",
                       "Q14", "Q15", "Q16", "Q17", "Q18", "Q19", "Q20", "Q21"}
#: queries with a hash build over a non-unique dense key of a base table
#: (lineitem by l_orderkey, orders by o_custkey, partsupp by ps_partkey)
PARTITION_DEPENDENT = {"Q4", "Q9", "Q13", "Q21", "Q22"}
ZONE_MAP_DEPENDENT = {"Q1", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q10", "Q12",
                      "Q14", "Q15", "Q19", "Q20", "Q21", "Q22"}


@pytest.fixture(scope="module")
def reference_results(tpch_catalog):
    return {name: execute(build_query(name), tpch_catalog)
            for name in QUERY_NAMES}


def _check_parity(reference_results, name, report):
    assert_rows_equivalent(reference_results[name], report.rows,
                           sort_keys=sort_contract(build_query(name)),
                           context=f"{name} on {report.tier}/{report.plan_mode}")


@pytest.mark.timeout(120)
class TestEngineFaultCascade:
    """Both fast tiers die mid-query; the interpreter still answers."""

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_falls_through_to_interpreter(self, tpch_catalog,
                                          reference_results, name):
        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog())
        faults = FaultPlan([
            FaultSpec(site="engine.compiled.run", error=EngineFault,
                      fires_on=None),
            FaultSpec(site="engine.vectorized.batch", error=EngineFault,
                      fires_on=(1,)),
        ], seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.tier == "interpreter"
        assert [a["tier"] for a in report.attempts] == ["compiled", "vectorized"]
        failures = executor.incidents.records(category="tier_failure")
        assert [i.tier for i in failures] == ["compiled", "vectorized"]
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(120)
class TestTransientCatalogFault:
    """A one-shot catalog hiccup is retried in place, not degraded."""

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_retry_recovers_on_the_same_tier(self, tpch_catalog,
                                             reference_results, name):
        executor = HardenedExecutor(tpch_catalog, tiers=("interpreter",),
                                    incidents=IncidentLog(),
                                    backoff_seconds=0.0)
        faults = FaultPlan([FaultSpec(site="catalog.table",
                                      error=TransientFault, fires_on=(1,),
                                      max_fires=1)], seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.tier == "interpreter"
        assert [a["error_type"] for a in report.attempts] == ["TransientFault"]
        assert executor.incidents.last("transient_retry") is not None
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(120)
class TestBrokenKeyIndex:
    """A broken PK index degrades the *plan* (drop access paths), keeping the
    compiled tier; queries that never touch an index are unaffected."""

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_plan_degrades_only_where_an_index_is_used(self, tpch_catalog,
                                                       reference_results,
                                                       name):
        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog())
        faults = FaultPlan([FaultSpec(
            site="access.key_index",
            error=lambda: AccessError("injected: key index corrupted"),
            fires_on=None)], seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.tier == "compiled"
        degraded = executor.incidents.records(category="plan_degraded")
        if name in KEY_INDEX_DEPENDENT:
            assert report.plan_mode == "no_access"
            assert len(degraded) == 1
            assert degraded[0].detail["to_mode"] == "no_access"
        else:
            assert report.plan_mode == "access"
            assert degraded == []
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(120)
class TestBrokenPartition:
    """A broken partition index costs the access paths, not the tier: the
    compiled stack retries in ``no_access`` mode, where the build is the
    ordinary per-query build in the body."""

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_plan_degrades_only_where_a_partition_is_used(self, tpch_catalog,
                                                          reference_results,
                                                          name):
        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog())
        faults = FaultPlan([FaultSpec(site="access.partition",
                                      error=DataCorruptionFault,
                                      fires_on=None)], seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.tier == "compiled"
        degraded = executor.incidents.records(category="plan_degraded")
        if name in PARTITION_DEPENDENT:
            assert report.plan_mode == "no_access"
            assert len(degraded) == 1
            assert degraded[0].detail["to_mode"] == "no_access"
            assert [a["error_type"] for a in report.attempts] == \
                ["DataCorruptionFault"]
        else:
            assert report.plan_mode == "access"
            assert degraded == [] and report.attempts == []
        # the tier itself never failed
        assert executor.incidents.records(category="tier_failure") == []
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(120)
class TestCorruptZoneMap:
    """A corrupted zone map likewise costs the access paths, not the tier."""

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_plan_degrades_only_where_pruning_is_used(self, tpch_catalog,
                                                      reference_results,
                                                      name):
        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog())
        faults = FaultPlan([FaultSpec(site="access.zone_map",
                                      error=DataCorruptionFault,
                                      fires_on=None)], seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.tier == "compiled"
        if name in ZONE_MAP_DEPENDENT:
            assert report.plan_mode == "no_access"
            assert executor.incidents.last("plan_degraded") is not None
        else:
            assert report.plan_mode == "access"
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(120)
class TestGenerationSkew:
    """A table re-registered in the plan→execute window forces a re-plan."""

    @pytest.mark.parametrize("name", ["Q1", "Q6"])
    def test_skew_is_detected_and_replanned(self, tpch_catalog,
                                            reference_results, name):
        def reregister(context):
            catalog = context["catalog"]
            catalog.register(catalog.table("lineitem"))

        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog())
        faults = FaultPlan([FaultSpec(site="executor.pre_execute",
                                      action=reregister, fires_on=(1,),
                                      max_fires=1)], seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.attempts == []
        skew = executor.incidents.last("generation_skew")
        assert skew is not None and skew.query == name
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(120)
class TestCompileTimeFault:
    """A compile-time explosion costs the compiled tier only."""

    @pytest.mark.parametrize("name", ["Q1", "Q6", "Q14"])
    def test_compile_error_falls_to_vectorized(self, tpch_catalog,
                                               reference_results, name):
        QueryCompiler.clear_cache()  # the fault site sits behind the cache
        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog())
        faults = FaultPlan([FaultSpec(site="compiler.compile",
                                      error=EngineFault, fires_on=(1,))],
                           seed=CHAOS_SEED)
        with inject(faults):
            report = executor.execute(build_query(name), name)
        assert report.tier == "vectorized"
        assert executor.incidents.last("tier_failure").tier == "compiled"
        _check_parity(reference_results, name, report)


@pytest.mark.timeout(300)
class TestFaultStorm:
    """Probabilistic multi-site chaos: whatever fires, the answer is either
    correct or a *typed* failure — never silently wrong."""

    SPECS = (
        ("engine.compiled.run", EngineFault, 0.30),
        ("engine.vectorized.batch", EngineFault, 0.10),
        ("access.key_index",
         lambda: AccessError("storm: index corrupted"), 0.20),
        ("access.zone_map", DataCorruptionFault, 0.15),
        ("access.partition", DataCorruptionFault, 0.15),
    )

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_storm_preserves_parity(self, tpch_catalog, reference_results,
                                    name):
        specs = [FaultSpec(site=site, error=error, probability=probability)
                 for site, error, probability in self.SPECS]
        specs.append(FaultSpec(site="catalog.table", error=TransientFault,
                               probability=0.05, max_fires=2))
        seed = CHAOS_SEED * 1000 + QUERY_NAMES.index(name)
        executor = HardenedExecutor(tpch_catalog, incidents=IncidentLog(),
                                    backoff_seconds=0.0)
        try:
            with inject(FaultPlan(specs, seed=seed)):
                report = executor.execute(build_query(name), name)
        except BudgetExceeded:
            pytest.fail("no budget installed; a budget trip is impossible")
        _check_parity(reference_results, name, report)
        # every failed attempt must be a known, typed failure
        allowed = {"EngineFault", "AccessError", "DataCorruptionFault",
                   "TransientFault", "CircuitOpen"}
        assert {a["error_type"] for a in report.attempts} <= allowed
