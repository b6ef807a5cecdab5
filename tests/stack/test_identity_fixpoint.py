"""The pass contract behind the change-driven fixpoint drivers.

*A pass that changes nothing returns its input.*  Both drivers
(:func:`repro.stack.transformation.apply_fixpoint` and
:func:`repro.planner.rewrite.apply_rules_fixpoint`) detect convergence by
object identity and never print a program, so the contract is what makes
them terminate early — and the golden source digest is what shows that
finding the fixed point differently did not move it.
"""
import hashlib

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.dsl.qmonad import QueryMonad
from repro.ir import IRBuilder, make_program
from repro.ir import pretty
from repro.ir.nodes import reset_symbol_counter
from repro.planner import Planner
from repro.stack import (CompilationContext, FunctionOptimization, QPLAN, SCALITE,
                         apply_fixpoint)
from repro.stack import transformation
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.tpch.queries import QUERY_NAMES, build_query
from repro.transforms.fusion import MonadFusionRules

#: sha256 over ``f"{config}/{query}\n" + source`` for CONFIG_NAMES x
#: QUERY_NAMES (in that order) at sf 0.001 / seed 20160626, each compile
#: after ``reset_symbol_counter()``; computed on the commit before the
#: change-driven drivers (dbc3525), keyed by ``build_config(planner=...)``.
GOLDEN_SOURCE_SHA256 = {
    False: "7e6a4b2adf04b05973e1acd7c59e59750bb97778ce26c962f5a1e6e33bf68a10",
    True: "34ce5726e0b706b8520c67bbfabf0ebb492aa6ad1218febc6e9f3d32728f2d3c",
}


def fixed_points(config, plan, catalog, query_name):
    """Yield ``(optimizations, program, context)`` at every level of the
    stack, ``program`` being the level's fixed point."""
    context = CompilationContext(catalog=catalog, flags=config.flags,
                                 query_name=query_name)
    stack, language, program = config.stack, QPLAN, plan
    while True:
        optimizations = [opt for opt in stack.optimizations_for(language)
                         if opt.applies(context)]
        program, report = apply_fixpoint(optimizations, program, context)
        assert report.reached_fixpoint
        yield optimizations, program, context
        lowering = stack.lowering_from(language)
        if lowering is None:
            return
        program, language = lowering.run(program, context), lowering.target


class TestPassContract:
    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_every_pass_returns_its_input_at_the_fixed_point(
            self, tpch_catalog, config_name):
        config = build_config(config_name)
        for query in QUERY_NAMES:
            for optimizations, program, context in fixed_points(
                    config, build_query(query), tpch_catalog, query):
                for opt in optimizations:
                    assert opt.run(program, context) is program, \
                        f"{opt.name} rebuilt the fixed point of {query}"

    def test_monad_fusion_returns_its_input_when_nothing_fuses(self):
        unfusable = (QueryMonad.table("R").filter(col("r_name") == "R1")
                     .hashJoin(QueryMonad.table("S"), col("r_sid"), col("s_rid"))
                     .count("count"))
        context = CompilationContext()
        assert MonadFusionRules().run(unfusable, context) is unfusable
        fusable = unfusable.filter(col("count") > 0).filter(col("count") < 9)
        fused = MonadFusionRules().run(fusable, context)
        assert fused is not fusable
        assert MonadFusionRules().run(fused, context) is fused

    def test_planner_sweeps_return_the_settled_plan(self, tpch_catalog):
        planner = Planner(tpch_catalog)
        for query in QUERY_NAMES:
            planned = planner.optimize(build_query(query))
            replanned, (context, report) = planner._run(planned)
            assert replanned is planned, query
            assert report.applied == [] and context.applied == []
            assert report.iterations == 1 and report.reached_fixpoint


class TestDrivers:
    def test_report_separates_changers_from_runs(self):
        """``applied`` names the passes that changed the program, ``runs``
        counts every pass run, and the no-op pass right after the last
        changer is not run a second time."""
        calls = []

        def noop(name):
            def run(program, context):
                calls.append(name)
                return program
            return FunctionOptimization(SCALITE, name, run)

        def fold_once(program, context):
            calls.append("fold")
            if len(program.body.stmts) == 1:
                return program
            builder = IRBuilder()
            return make_program(builder.finish(builder.emit("add", [1, 2])), [],
                                program.language)

        builder = IRBuilder()
        start = make_program(
            builder.finish(builder.emit("mul", [builder.emit("add", [1, 2]), 3])),
            [], "ScaLite")
        passes = [noop("a"), FunctionOptimization(SCALITE, "fold", fold_once),
                  noop("b")]
        _, report = apply_fixpoint(passes, start, CompilationContext())
        assert report.reached_fixpoint
        assert report.applied == ["fold"]
        # round 1: a, fold (changes), b; round 2: a, fold — `b` already
        # returned its input for this very program
        assert calls == ["a", "fold", "b", "a", "fold"]
        assert report.runs == 5 and report.iterations == 2

    def test_neither_driver_fingerprints_on_the_default_path(
            self, tpch_catalog, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a fixpoint driver printed a program")

        plans = {query: build_query(query) for query in ("Q3", "Q11", "Q21")}
        planned = {query: Planner(tpch_catalog).optimize(plan)
                   for query, plan in plans.items()}
        monkeypatch.setattr(pretty, "fingerprint", forbidden)
        monkeypatch.setattr(transformation, "fingerprint", forbidden)
        monkeypatch.setattr(transformation, "program_fingerprint", forbidden)
        monkeypatch.setattr(Q, "plan_fingerprint", forbidden)
        monkeypatch.setattr(Q.Operator, "__repr__", forbidden)
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        for query, plan in plans.items():
            # the planner's three rule phases, then the whole stack
            assert Planner(tpch_catalog)._run(plan)[0] is not plan
            assert compiler.lower(planned[query], tpch_catalog, query).program


class TestGoldenSource:
    @pytest.mark.parametrize("planner", [False, True])
    def test_generated_source_is_byte_identical(self, tpch_catalog, planner):
        digest = hashlib.sha256()
        for config_name in CONFIG_NAMES:
            config = build_config(config_name, planner=planner)
            compiler = QueryCompiler(config.stack, config.flags)
            for query in QUERY_NAMES:
                QueryCompiler.clear_cache()
                reset_symbol_counter()
                source = compiler.compile(build_query(query), tpch_catalog,
                                          query).source
                digest.update(f"{config_name}/{query}\n".encode())
                digest.update(source.encode())
        assert digest.hexdigest() == GOLDEN_SOURCE_SHA256[planner]
