"""Resource-governor tests: budget trips on every engine, checkpoint
granularity, and the zero-overhead inactive path."""
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
    def test_defaults_are_unlimited(self):
        budget = QueryBudget.unlimited()
        assert budget.timeout_seconds is None
        assert budget.max_output_rows is None
        assert budget.max_intermediate_rows is None
        assert budget.max_compile_seconds is None

    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError):
            QueryBudget(timeout_seconds=-1.0)
        with pytest.raises(ValueError):
            QueryBudget(max_output_rows=-5)
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

    def test_row_budget_trips_within_one_row(self):
        governor = ResourceGovernor(QueryBudget(max_intermediate_rows=10))
        with pytest.raises(BudgetExceeded) as info:
            for _ in range(100):
                governor.tick()
        assert info.value.kind == "rows"
        assert info.value.stats.rows_processed == 11  # exactly one past

    def test_output_row_budget(self):
        governor = ResourceGovernor(QueryBudget(max_output_rows=5))
        governor.note_output_rows(5)  # at the limit: fine
        with pytest.raises(BudgetExceeded) as info:
            governor.note_output_rows(1)
        assert info.value.kind == "output_rows"

    def test_compile_budget(self):
        governor = ResourceGovernor(QueryBudget(max_compile_seconds=1.0))
        governor.charge_compile(0.5)
        with pytest.raises(BudgetExceeded) as info:
            governor.charge_compile(0.6)
        assert info.value.kind == "compile"
        assert info.value.stats.compile_seconds == pytest.approx(1.1)

    def test_timeout_checked_at_checkpoints(self):
        governor = ResourceGovernor(QueryBudget(timeout_seconds=0.0,
                                                check_interval=4))
        with pytest.raises(BudgetExceeded) as info:
            for _ in range(8):
                governor.tick()
        assert info.value.kind == "timeout"
        # the clock is only consulted every check_interval rows
        assert info.value.stats.rows_processed == 4

    def test_stats_carry_partial_progress(self):
        governor = ResourceGovernor(QueryBudget(max_intermediate_rows=3))
        with pytest.raises(BudgetExceeded) as info:
            governor.guard_rows(iter(range(100))).__next__()
            for _ in governor.guard_rows(iter(range(100))):
                pass
        stats = info.value.stats.as_dict()
        assert stats["rows_processed"] == 4
        assert stats["elapsed_seconds"] >= 0.0


class TestRuntimeHooks:
    def test_governed_range_is_native_range_when_inactive(self):
        assert current_governor() is None
        assert governed_range(0, 5) == range(0, 5)
        assert type(governed_range(0, 5)) is range

    def test_governed_iter_passthrough_when_inactive(self):
        values = [1, 2, 3]
        assert governed_iter(values) is values

    def test_governed_range_ticks_when_active(self):
        with governed(QueryBudget(max_intermediate_rows=3)):
            with pytest.raises(BudgetExceeded):
                for _ in governed_range(0, 100):
                    pass


@pytest.mark.timeout(20)
class TestEngineCancellation:
    """Row-budget trips cancel within one checkpoint interval per engine."""

    def test_volcano_row_budget(self, tiny_catalog):
        engine = VolcanoEngine(tiny_catalog)
        with governed(QueryBudget(max_intermediate_rows=3)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        assert info.value.kind == "rows"
        assert info.value.stats.rows_processed == 4

    def test_volcano_timeout(self, tiny_catalog):
        engine = VolcanoEngine(tiny_catalog)
        with governed(QueryBudget(timeout_seconds=0.0, check_interval=1)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        assert info.value.kind == "timeout"

    def test_volcano_output_budget(self, tiny_catalog):
        engine = VolcanoEngine(tiny_catalog)
        with governed(QueryBudget(max_output_rows=2)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(Q.Scan("R"))
        assert info.value.kind == "output_rows"

    def test_vectorized_batch_budget(self, tiny_catalog):
        engine = VectorizedEngine(tiny_catalog, batch_size=2)
        with governed(QueryBudget(max_intermediate_rows=3)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        assert info.value.kind == "rows"
        # batch boundaries are the checkpoints: the trip lands within one
        # batch (2 rows) of the 3-row limit
        assert info.value.stats.rows_processed <= 3 + 2

    def test_vectorized_timeout(self, tiny_catalog):
        engine = VectorizedEngine(tiny_catalog)
        with governed(QueryBudget(timeout_seconds=0.0)):
            with pytest.raises(BudgetExceeded) as info:
                engine.execute(_scan_plan())
        assert info.value.kind == "timeout"

    @pytest.mark.parametrize("config_name", ["dblab-5", "template-expander"])
    def test_compiled_stack_in_loop_cancellation(self, tiny_catalog, config_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        compiled = compiler.compile(_scan_plan(), tiny_catalog, "gq")
        assert "_rt.governed_" in compiled.source
        with governed(QueryBudget(max_intermediate_rows=3)):
            with pytest.raises(BudgetExceeded) as info:
                compiled.run(tiny_catalog)
        assert info.value.kind == "rows"
        assert info.value.stats.rows_processed == 4

    @pytest.mark.parametrize("config_name", ["dblab-5", "template-expander"])
    def test_compiled_stack_clean_run_matches_reference(self, tiny_catalog,
                                                        config_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        compiled = compiler.compile(_scan_plan(), tiny_catalog, "gq")
        assert compiled.run(tiny_catalog) == \
            VolcanoEngine(tiny_catalog).execute(_scan_plan())

    def test_compile_time_budget_via_compiler(self, tiny_catalog):
        QueryCompiler.clear_cache()
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        with governed(QueryBudget(max_compile_seconds=0.0)):
            with pytest.raises(BudgetExceeded) as info:
                compiler.compile(_scan_plan(), tiny_catalog, "slowq")
        assert info.value.kind == "compile"
