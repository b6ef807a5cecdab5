"""Resource-governor tests: deadline trips on every engine, checkpoint
granularity, and the zero-overhead inactive path."""
import dataclasses

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.codegen.runtime import governed_iter, governed_range
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.robustness.governor import (BudgetExceeded, QueryBudget,
                                       ResourceGovernor, current_governor,
                                       governed)
from repro.stack.configs import build_config


def _scan_plan():
    return Q.Select(Q.Scan("S"), col("s_val") > 0.0)


class TestQueryBudget:
    def test_a_budget_is_its_deadline(self):
        assert [f.name for f in dataclasses.fields(QueryBudget)] == \
            ["timeout_seconds", "check_interval"]
        budget = QueryBudget.unlimited()
        assert budget.timeout_seconds is None
        assert budget.check_interval == 256

    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            QueryBudget(timeout_seconds=-1.0)
        with pytest.raises(ValueError):
            QueryBudget(check_interval=0)


class TestGovernorCore:
    def test_no_governor_outside_context(self):
        assert current_governor() is None
        with governed(QueryBudget.unlimited()) as governor:
            assert current_governor() is governor
        assert current_governor() is None

    def test_context_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with governed(QueryBudget.unlimited()):
                raise RuntimeError("boom")
        assert current_governor() is None

    def test_budget_without_timeout_ticks_and_never_trips(self):
        governor = ResourceGovernor(QueryBudget(check_interval=1))
        for _ in range(1000):
            governor.tick()
        governor.checkpoint(5)
        assert governor.stats.rows_processed == 1005
        assert governor.stats.checkpoints == 1

    def test_timeout_checked_at_checkpoints(self):
        governor = ResourceGovernor(QueryBudget(timeout_seconds=0.0,
                                                check_interval=4))
        with pytest.raises(BudgetExceeded) as info:
            for _ in range(8):
                governor.tick()
        assert info.value.limit == 0.0
        # the clock is only consulted every check_interval rows
        assert info.value.stats.rows_processed == 4

    def test_checkpoint_always_reads_the_clock(self):
        governor = ResourceGovernor(QueryBudget(timeout_seconds=0.0,
                                                check_interval=1000))
        with pytest.raises(BudgetExceeded) as info:
            governor.checkpoint(3)
        assert info.value.stats.rows_processed == 3
        assert info.value.stats.checkpoints == 1

    def test_stats_carry_partial_progress(self):
        governor = ResourceGovernor(QueryBudget(timeout_seconds=0.0,
                                                check_interval=4))
        with pytest.raises(BudgetExceeded) as info:
            governor.guard_rows(iter(range(100))).__next__()
            for _ in governor.guard_rows(iter(range(100))):
                pass
        stats = info.value.stats.as_dict()
        assert stats == {"rows_processed": 4, "checkpoints": 0,
                         "elapsed_seconds": stats["elapsed_seconds"]}
        assert stats["elapsed_seconds"] > 0.0


class TestRuntimeHooks:
    def test_governed_range_is_native_range_when_inactive(self):
        assert current_governor() is None
        assert governed_range(0, 5) == range(0, 5)
        assert type(governed_range(0, 5)) is range

    def test_governed_iter_passthrough_when_inactive(self):
        values = [1, 2, 3]
        assert governed_iter(values) is values

    def test_governed_range_ticks_when_active(self):
        seen = []
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=3)):
            with pytest.raises(BudgetExceeded):
                for i in governed_range(0, 100):
                    seen.append(i)
        assert seen == [0, 1]  # the third tick reads the clock and trips


@pytest.mark.timeout(20)
class TestEngineCancellation:
    """A passed deadline cancels within one check interval per engine."""

    def test_volcano_trips_at_the_check_interval(self, tiny_catalog):
        engine = VolcanoEngine(tiny_catalog)
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=3)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        # every operator's stream ticks: the third pulled row reads the clock
        assert info.value.stats.rows_processed == 3

    def test_volcano_timeout(self, tiny_catalog):
        engine = VolcanoEngine(tiny_catalog)
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        assert info.value.stats.rows_processed == 1

    def test_vectorized_trips_at_the_first_batch(self, tiny_catalog):
        engine = VectorizedEngine(tiny_catalog, batch_size=2)
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1000)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        # batch boundaries are the checkpoints, and a checkpoint always
        # reads the clock: the trip lands on the first batch (2 rows)
        assert info.value.stats.checkpoints == 1
        assert info.value.stats.rows_processed <= 2

    def test_vectorized_timeout(self, tiny_catalog):
        engine = VectorizedEngine(tiny_catalog)
        with governed(QueryBudget(timeout_seconds=0.0)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        assert info.value.stats.checkpoints >= 1

    @pytest.mark.parametrize("config_name", ["dblab-5", "template-expander"])
    def test_compiled_stack_in_loop_cancellation(self, tiny_catalog, config_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        compiled = compiler.compile(_scan_plan(), tiny_catalog, "gq")
        assert "_rt.governed_" in compiled.source
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=4)):
            with pytest.raises(BudgetExceeded) as info:
                compiled.run(tiny_catalog)
        assert info.value.stats.rows_processed == 4

    @pytest.mark.parametrize("config_name", ["dblab-5", "template-expander"])
    def test_compiled_stack_clean_run_matches_reference(self, tiny_catalog,
                                                        config_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        compiled = compiler.compile(_scan_plan(), tiny_catalog, "gq")
        assert compiled.run(tiny_catalog) == \
            VolcanoEngine(tiny_catalog).execute(_scan_plan())

    def test_a_cold_compile_is_not_charged_to_the_deadline(self, tiny_catalog):
        """The deadline is read only where rows flow: a cold compile under a
        passed deadline completes, and the run that follows trips."""
        QueryCompiler.clear_cache()
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1)):
            compiled = compiler.compile(_scan_plan(), tiny_catalog, "coldq")
            assert not compiled.cache_hit
            with pytest.raises(BudgetExceeded):
                compiled.run(tiny_catalog)
