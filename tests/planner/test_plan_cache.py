"""The planner's memo lives in the catalog's derived cache.

``Planner.for_catalog`` serves ``optimize`` from the one bounded,
invalidated-with-the-data cache; a directly constructed ``Planner`` always
runs the rules.  Regressions: the shared planner used to return trees costed
on replaced statistics after a re-registration, and both it and the hardened
executor memoized planned trees without bound.
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.planner import Planner, PlannerOptions
from repro.robustness.fallback import HardenedExecutor
from repro.robustness.incidents import IncidentLog
from repro.storage.access import AccessLayer
from repro.storage.derived import PLANS, PROBATION
from repro.storage.layouts import ColumnarTable


@pytest.fixture(autouse=True)
def fresh_cache():
    QueryCompiler.clear_cache()
    yield
    QueryCompiler.clear_cache()


def _s_table(catalog, rows):
    schema = catalog.table("S").schema
    return ColumnarTable(schema, {
        "s_id": list(range(100, 100 + rows)),
        "s_rid": [10 * (1 + n % 4) for n in range(rows)],
        "s_val": [float(n) for n in range(rows)],
    })


def _join():
    # S builds, R (5 rows) probes; neither key is a primary key, so no
    # index join pre-empts the cost-based build-side choice
    return Q.HashJoin(Q.Scan("S"), Q.Scan("R"), col("s_rid"), col("r_sid"))


def _count_rule_runs(monkeypatch):
    runs = []
    original = Planner._run

    def counting(self, plan):
        runs.append(Q.plan_fingerprint(plan))
        return original(self, plan)

    monkeypatch.setattr(Planner, "_run", counting)
    return runs


class TestPlannerCache:
    def test_for_catalog_replans_after_a_reregistration(self, tiny_catalog):
        """A re-registration that flips ``BuildSideSwap`` (the build table
        shrinks below the probe) must not be answered from the old memo."""
        raw = _join()
        tiny_catalog.register(_s_table(tiny_catalog, 40))
        swapped = Planner.for_catalog(tiny_catalog).optimize(raw)
        assert swapped is Planner.for_catalog(tiny_catalog).optimize(raw)
        assert Q.plan_fingerprint(swapped) == \
            Q.plan_fingerprint(Planner(tiny_catalog).optimize(raw))

        tiny_catalog.register(_s_table(tiny_catalog, 2))
        replanned = Planner.for_catalog(tiny_catalog).optimize(raw)
        fresh = Planner(tiny_catalog).optimize(raw)
        assert Q.plan_fingerprint(replanned) == Q.plan_fingerprint(fresh)
        # ... and the statistics really flipped the choice
        assert Q.plan_fingerprint(fresh) != Q.plan_fingerprint(swapped)

    def test_a_held_planner_sees_the_live_statistics(self, tiny_catalog):
        raw = _join()
        for planner in (Planner(tiny_catalog), Planner.for_catalog(tiny_catalog)):
            tiny_catalog.register(_s_table(tiny_catalog, 40))
            big = planner.optimize(raw)
            tiny_catalog.register(_s_table(tiny_catalog, 2))
            small = planner.optimize(raw)
            assert Q.plan_fingerprint(big) != Q.plan_fingerprint(small)

    def test_direct_planner_runs_the_rules_cached_planner_looks_up(
            self, tiny_catalog, monkeypatch):
        raw = _join()
        runs = _count_rule_runs(monkeypatch)
        Planner.for_catalog(tiny_catalog).optimize(raw)
        Planner.for_catalog(tiny_catalog).optimize(raw)
        assert len(runs) == 1
        # a directly constructed planner never reads the shared memo ...
        Planner(tiny_catalog).optimize(raw)
        Planner(tiny_catalog, PlannerOptions()).optimize(raw)
        assert len(runs) == 3
        # ... and explain always reports a real run
        assert Planner.for_catalog(tiny_catalog).explain(raw).iterations >= 1
        assert len(runs) == 4

    def test_options_are_part_of_the_key(self, tiny_catalog):
        raw = Q.Select(Q.Scan("S"), col("s_val") > 2.0)
        with_paths = Planner.for_catalog(tiny_catalog).optimize(raw)
        without = Planner.for_catalog(
            tiny_catalog, PlannerOptions.no_access_paths()).optimize(raw)
        assert isinstance(with_paths, Q.PrunedScan)
        assert not isinstance(without, Q.PrunedScan)


class TestPlannedTreesAreBounded:
    def test_executor_keeps_at_most_capacity_planned_trees(self, tiny_catalog):
        saved = QueryCompiler.cache_capacity
        QueryCompiler.set_cache_capacity(4)
        try:
            executor = HardenedExecutor(tiny_catalog, incidents=IncidentLog())
            for n in range(10):
                plan = Q.Select(Q.Scan("S"), col("s_val") > float(n))
                assert executor.execute(plan, f"b{n}").tier == "compiled"
            derived = AccessLayer.for_catalog(tiny_catalog).derived
            assert derived.entry_count(PLANS) == 4
            assert not any("plan" in name for name in vars(executor))
        finally:
            QueryCompiler.set_cache_capacity(saved)

    def test_one_shot_planned_trees_stay_in_probation(self, tiny_catalog):
        """At the default capacity, never-repeated plans keep at most
        ``PROBATION`` planned trees, and a warmed plan outlasts them."""
        executor = HardenedExecutor(tiny_catalog, incidents=IncidentLog())
        warmed = Q.Select(Q.Scan("S"), col("s_val") > -1.0)
        executor.warm(warmed, "warmed")
        for n in range(PROBATION + 8):
            plan = Q.Select(Q.Scan("S"), col("s_val") > float(n))
            assert executor.execute(plan, f"b{n}").tier == "compiled"
        derived = AccessLayer.for_catalog(tiny_catalog).derived
        assert derived.entry_count(PLANS) == PROBATION + 1
        assert executor.warm(warmed, "warmed") == 0.0
