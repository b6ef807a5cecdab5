"""Fault-injection registry tests: determinism, firing rules, install/uninstall."""
import pytest

from repro.robustness import faults
from repro.robustness.faults import (KNOWN_SITES, DataCorruptionFault,
                                     EngineFault, FaultPlan, FaultSpec,
                                     InjectedFault, TransientFault,
                                     fault_point, fault_value, inject)


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="engine.warp_drive")

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError):
            FaultSpec(site="catalog.table", probability=1.5)

    def test_exception_hierarchy(self):
        assert issubclass(TransientFault, InjectedFault)
        assert issubclass(EngineFault, InjectedFault)
        assert issubclass(DataCorruptionFault, InjectedFault)
        assert issubclass(InjectedFault, RuntimeError)


class TestFaultPlan:
    def test_fires_on_selects_hit_numbers(self):
        plan = FaultPlan([FaultSpec(site="catalog.table", error=TransientFault,
                                    fires_on=(2,))])
        with inject(plan):
            fault_point("catalog.table", table="R")  # hit 1: no fire
            with pytest.raises(TransientFault):
                fault_point("catalog.table", table="R")  # hit 2: fires
            fault_point("catalog.table", table="R")  # hit 3: no fire
        assert plan.hits["catalog.table"] == 3
        assert plan.fired == [("catalog.table", 2)]

    def test_fires_on_none_means_every_hit(self):
        plan = FaultPlan([FaultSpec(site="access.zone_map",
                                    error=DataCorruptionFault, fires_on=None)])
        with inject(plan):
            for _ in range(3):
                with pytest.raises(DataCorruptionFault):
                    fault_point("access.zone_map", table="S")
        assert plan.fired == [("access.zone_map", hit) for hit in (1, 2, 3)]

    def test_max_fires_clears_a_transient_fault(self):
        plan = FaultPlan([FaultSpec(site="catalog.table", error=TransientFault,
                                    fires_on=None, max_fires=2)])
        with inject(plan):
            for _ in range(2):
                with pytest.raises(TransientFault):
                    fault_point("catalog.table", table="R")
            fault_point("catalog.table", table="R")  # cleared
        assert len(plan.fired) == 2

    def test_seeded_probability_is_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan([FaultSpec(site="engine.volcano.operator",
                                        error=EngineFault, probability=0.5)],
                             seed=seed)
            pattern = []
            with inject(plan):
                for _ in range(20):
                    try:
                        fault_point("engine.volcano.operator", operator="Scan")
                        pattern.append(False)
                    except EngineFault:
                        pattern.append(True)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert any(firing_pattern(7))
        assert not all(firing_pattern(7))

    def test_value_sites(self):
        plan = FaultPlan([FaultSpec(site="server.executor_slow", value=3.5,
                                    fires_on=(1,))])
        with inject(plan):
            assert fault_value("server.executor_slow", 0.0) == 3.5
            assert fault_value("server.executor_slow", 0.0) == 0.0  # hit 2

    def test_value_default_without_plan(self):
        assert fault_value("server.executor_slow", 0.25) == 0.25

    def test_action_receives_site_context(self):
        seen = []
        plan = FaultPlan([FaultSpec(site="executor.pre_execute",
                                    action=seen.append)])
        with inject(plan):
            fault_point("executor.pre_execute", query="q6", tier="compiled")
        assert seen == [{"query": "q6", "tier": "compiled"}]

    def test_action_runs_before_error(self):
        order = []
        plan = FaultPlan([FaultSpec(site="catalog.table",
                                    action=lambda ctx: order.append("action"),
                                    error=TransientFault)])
        with inject(plan):
            with pytest.raises(TransientFault):
                fault_point("catalog.table", table="R")
        assert order == ["action"]


class TestInstallation:
    def test_fault_point_is_noop_without_plan(self):
        assert faults._PLAN is None
        fault_point("engine.compiled.run", query="q1")  # must not raise

    def test_inject_uninstalls_on_exit(self):
        with inject(FaultPlan([])):
            assert faults._PLAN is not None
        assert faults._PLAN is None

    def test_inject_uninstalls_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with inject(FaultPlan([])):
                raise RuntimeError("boom")
        assert faults._PLAN is None

    def test_nested_inject_is_rejected(self):
        with inject(FaultPlan([])):
            with pytest.raises(RuntimeError, match="already installed"):
                with inject(FaultPlan([])):
                    pass

    def test_known_sites_cover_every_planted_fault_point(self):
        # the registry is the single source of truth; every site string used
        # in these tests must be registered
        assert "executor.pre_execute" in KNOWN_SITES
        for site in ("server.queue_stall", "server.executor_slow",
                     "server.deadline_skew"):
            assert site in KNOWN_SITES
        assert "access.partition" in KNOWN_SITES
        assert len(KNOWN_SITES) == 12
