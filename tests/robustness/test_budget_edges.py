"""Deadline-propagation edge cases for :class:`QueryBudget`.

The serving front door translates a request's *remaining* deadline into
``QueryBudget.timeout_seconds`` at dispatch time, so the budget machinery
must behave sensibly at the boundary the queue creates: zero or near-zero
time left.  These tests pin that a zero/near-zero timeout trips on the
governed path of **every** engine tier — first checkpoint, before
meaningful work — and that the :class:`BudgetExceeded` carried out of each
tier has a fully populated :class:`ProgressStats` (the server copies it
into the response ``detail`` so callers can see how far a killed query
got).
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.robustness.fallback import ENGINE_TIERS, HardenedExecutor
from repro.robustness.faults import FaultPlan, inject
from repro.robustness.governor import BudgetExceeded, QueryBudget, governed
from repro.robustness.incidents import IncidentLog
from repro.stack.configs import build_config

STATS_KEYS = {"rows_processed", "checkpoints", "elapsed_seconds"}


def _scan_plan():
    return Q.Select(Q.Scan("S"), col("s_val") > 0.0)


def _assert_populated(error: BudgetExceeded):
    """The trip carries usable partial-progress stats, not an empty shell."""
    assert "(timeout: limit=" in str(error)
    stats = error.stats.as_dict()
    assert set(stats) == STATS_KEYS
    assert stats["rows_processed"] >= 1  # at least one governed step ran
    assert stats["elapsed_seconds"] >= 0.0


class TestZeroTimeoutBudget:
    """timeout_seconds=0.0 — a request admitted with no deadline left."""

    def test_zero_timeout_is_a_valid_budget(self):
        budget = QueryBudget(timeout_seconds=0.0)
        assert budget.timeout_seconds == 0.0

    def test_volcano_trips_at_first_checkpoint(self, tiny_catalog):
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1)):
            with pytest.raises(BudgetExceeded) as info:
                VolcanoEngine(tiny_catalog).execute(_scan_plan())
        _assert_populated(info.value)
        assert info.value.stats.rows_processed == 1

    def test_vectorized_trips_at_first_batch(self, tiny_catalog):
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1)):
            with pytest.raises(BudgetExceeded) as info:
                VectorizedEngine(tiny_catalog, batch_size=2).execute(
                    _scan_plan())
        _assert_populated(info.value)
        assert info.value.stats.checkpoints >= 1

    @pytest.mark.parametrize("config_name", ["dblab-5", "template-expander"])
    def test_compiled_trips_inside_governed_range(self, tiny_catalog,
                                                  config_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        compiled = compiler.compile(_scan_plan(), tiny_catalog, "zq")
        assert "_rt.governed_" in compiled.source
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1)):
            with pytest.raises(BudgetExceeded) as info:
                compiled.run(tiny_catalog)
        _assert_populated(info.value)


class TestNearZeroTimeoutBudget:
    """A few nanoseconds of deadline behave like zero, not like unlimited."""

    @pytest.mark.parametrize("timeout", [1e-9, 1e-6])
    def test_every_engine_trips(self, tiny_catalog, timeout):
        config = build_config("template-expander")
        expanded = QueryCompiler(config.stack, config.flags).compile(
            _scan_plan(), tiny_catalog, "nq")
        runs = [
            lambda: VolcanoEngine(tiny_catalog).execute(_scan_plan()),
            lambda: VectorizedEngine(tiny_catalog).execute(_scan_plan()),
            lambda: expanded.run(tiny_catalog),
        ]
        for run in runs:
            with governed(QueryBudget(timeout_seconds=timeout,
                                      check_interval=1)):
                with pytest.raises(BudgetExceeded) as info:
                    run()
            _assert_populated(info.value)


@pytest.mark.timeout(60)
class TestHardenedExecutorDeadlineEdges:
    """The ladder treats a timeout trip as final on every tier — exactly
    the behavior the front door's deadline propagation relies on."""

    @pytest.mark.parametrize("tier", ENGINE_TIERS)
    def test_timeout_is_final_with_populated_stats(self, tiny_catalog, tier,
                                                   ladder_down_to):
        executor = HardenedExecutor(tiny_catalog, incidents=IncidentLog())
        budget = QueryBudget(timeout_seconds=0.0, check_interval=1)
        with inject(FaultPlan(ladder_down_to(tier))):
            with pytest.raises(BudgetExceeded) as info:
                executor.execute(_scan_plan(), f"edge-{tier}", budget=budget)
        _assert_populated(info.value)
        trip = executor.incidents.last("budget_trip")
        assert (trip.tier, trip.cause) == (tier, "budget:timeout")
        assert executor.incidents.count("tier_failure") == \
            ENGINE_TIERS.index(tier)

    def test_zero_timeout_never_falls_through_the_ladder(self, tiny_catalog):
        """Full ladder + zero timeout: the first tier's trip ends the run;
        later tiers must not be attempted (a deadline miss is not an engine
        bug to route around)."""
        incidents = IncidentLog()
        executor = HardenedExecutor(tiny_catalog, incidents=incidents)
        budget = QueryBudget(timeout_seconds=0.0, check_interval=1)
        with pytest.raises(BudgetExceeded):
            executor.execute(_scan_plan(), "edge-ladder", budget=budget)
        trips = incidents.records(category="budget_trip")
        assert len(trips) == 1
        assert incidents.count("tier_failure") == 0
