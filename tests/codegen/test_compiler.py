"""Unit tests for the QueryCompiler facade."""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.volcano import execute
from repro.stack.configs import CONFIG_NAMES, build_config


@pytest.fixture()
def plan():
    return Q.Agg(
        Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                   Q.Scan("S"), col("r_sid"), col("s_rid")),
        [], [Q.AggSpec("count", None, "n")])


class TestQueryCompiler:
    def test_compile_produces_runnable_query(self, tiny_catalog, plan):
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog, "ex")
        assert compiled.run(tiny_catalog) == execute(plan, tiny_catalog)
        assert compiled.name == "ex"
        assert compiled.config == "dblab-5"

    def test_compile_validates_plan_first(self, tiny_catalog):
        config = build_config("dblab-2")
        bad = Q.Select(Q.Scan("R"), col("not_a_column") == 1)
        with pytest.raises(Q.PlanError):
            QueryCompiler(config.stack, config.flags).compile(bad, tiny_catalog)

    def test_compile_records_timings_and_phases(self, tiny_catalog, plan):
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog)
        assert compiled.generation_seconds > 0
        assert compiled.python_compile_seconds > 0
        assert compiled.compile_seconds == pytest.approx(
            compiled.generation_seconds + compiled.python_compile_seconds)
        kinds = {p.kind for p in compiled.phases}
        assert "lowering" in kinds
        assert "optimization-fixpoint" in kinds

    def test_source_is_inspectable(self, tiny_catalog, plan):
        config = build_config("dblab-3")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog)
        assert "def query(" in compiled.source
        assert compiled.source_lines > 10

    def test_generated_program_reaches_target_language(self, tiny_catalog, plan):
        for name in ("dblab-2", "dblab-3", "dblab-4", "dblab-5"):
            config = build_config(name)
            lowered = QueryCompiler(config.stack, config.flags).lower(plan, tiny_catalog)
            assert lowered.program.language == "C.Py"

    def test_run_without_prepare_prepares_lazily(self, tiny_catalog, plan):
        config = build_config("dblab-4")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog)
        assert compiled.run(tiny_catalog) == execute(plan, tiny_catalog)

    def test_more_levels_never_change_results(self, tiny_catalog, plan):
        reference = execute(plan, tiny_catalog)
        for name in CONFIG_NAMES:
            config = build_config(name)
            compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog)
            assert compiled.run(tiny_catalog) == reference
