"""The pass contract behind the change-driven fixpoint driver.

*A pass that changes nothing returns its input.*  The one driver
(:func:`repro.stack.transformation.apply_fixpoint`; the planner's
:func:`repro.planner.rewrite.apply_rules_fixpoint` hands it a rule sweep as
its single step) detects a change by object identity and never prints a
program, and re-runs a pass only when a pass that declares it ``enables`` it
changed the program — so the contract, and the declarations, are what let it
stop early.  The golden source digests are what show that finding the fixed
point differently, or building the stacks from a table, did not move it:
a declaration that misses an edge would leave a program one rewrite short.
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
from repro.planner import (Planner, PlannerContext, PlannerOptions,
                           apply_rules_fixpoint)
from repro.planner import rewrite
from repro.planner.rules import PredicatePushdown
from repro.stack import (CompilationContext, FixpointReport, FunctionOptimization,
                         QPLAN, SCALITE, StackValidationError, apply_fixpoint)
from repro.stack import transformation
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.tpch.queries import QUERY_NAMES, build_query
from repro.transforms.fusion import MonadFusionRules

#: sha256 over ``f"{config}/{query}\n" + source`` for QUERY_NAMES (in that
#: order) at sf 0.001 / seed 20160626, each compile after
#: ``reset_symbol_counter()``.  Planner off: one digest over CONFIG_NAMES x
#: QUERY_NAMES, computed on the commit before the change-driven drivers
#: (dbc3525).  Planner on: one digest per configuration, computed on the last
#: commit with an ``IndexJoin`` lowering of its own (1a23808) — except
#: dblab-4 / dblab-5, the two stacks that took it, re-pinned when a compiled
#: ``IndexJoin`` became the hash join it subclasses.  Against 1a23808 their
#: source differs on exactly the queries whose planned tree holds an inner or
#: semi ``IndexJoin`` (Q7, Q10, Q12, Q14, Q15, Q18, Q19, Q20); Q13's
#: (leftouter) was the hash lowering already.
GOLDEN_SOURCE_SHA256 = {
    False: "7e6a4b2adf04b05973e1acd7c59e59750bb97778ce26c962f5a1e6e33bf68a10",
    True: {
        "template-expander": "208f7e9ad8e48573befbb7f63594f0d7adf0cca6f58693c3ded10b6dfd43e30b",
        "dblab-2": "5c6276cce4521201634f9b8f68ca867f178b475e26fab95545de0b6e6529ff9d",
        "dblab-3": "875c6a8450fc309fdcbc77a0b5e6e559fa229928d640ba1e420db69f84ecf0aa",
        "dblab-4": "f27718cb0cb44a9ea7f40ad5eff18cfd979dc2216120f1649b04942904f55e20",
        "dblab-5": "c62b07d29de5e4c0dddda8f8b07d2abc982d08e1f83dae1851269f2b68244cb1",
        "tpch-compliant": "8357e72bfffcda913fa3489b7aca9c89411f805bd84647f8c17098417ee2a61c",
    },
}

#: sha256 over ``f"{options}/{query}\n" + plan_fingerprint(planned)`` for
#: QUERY_NAMES planned on the same catalog under ``PlannerOptions.all_rules()``
#: then ``exact_order()``, computed on the last commit whose direct engines
#: had an index join of their own (21077fa).  The source digests cannot see
#: which joins are ``IndexJoin``: the stacks lower it as the ``HashJoin`` it
#: subclasses.
GOLDEN_PLAN_SHA256 = "e8168f80b55519b4e69b0b13036dae3a31daea2485378209ec74ec29bed7dc49"

#: sha256 of the source each configuration generates for
#: :func:`fusable_chain` (same catalog, after ``reset_symbol_counter()``),
#: computed on the last commit that gated passes by flag (326b160).  The
#: digests above compile QPlan only and cannot see a QMonad pass land in the
#: wrong stack: fusion runs in dblab-5 / tpch-compliant and nowhere else
#: (with it, dblab-3 would generate tpch-compliant's source and dblab-4
#: dblab-5's).  ``None``: the one-lowering stack has no QMonad front end.
GOLDEN_QMONAD_SHA256 = {
    "template-expander": None,
    "dblab-2": "a93ab574b9523481a0134b5352aa308e584fb23832bcc210820f4baa8062d736",
    "dblab-3": "9bd1c16849c6b54bbc3660a854eb8e2ca276a1ea7e9f7873a3f741f56eca74dd",
    "dblab-4": "24398e3cfe889eccd3ce4ff3667c6d6d4a97a7a74f1652c76977a5db2ce7a0f2",
    "dblab-5": "c7490fbf29ebdeecaabae030cb9ff9d93271c0ebbd9a85bac5d1334bce4b573b",
    "tpch-compliant": "94a3af79c651209d52ea8fd7f633b43d69fae470846348001474a25f83680806",
}


def fusable_chain():
    """``filter∘filter``, ``map∘map``, a join and a fold over TPC-H."""
    orders = (QueryMonad.table("orders")
              .filter(col("o_orderpriority") == "1-URGENT")
              .filter(col("o_totalprice") > 1000.0)
              .map([("okey", col("o_orderkey")), ("ckey", col("o_custkey")),
                    ("price", col("o_totalprice"))])
              .map([("okey", col("okey")), ("ckey", col("ckey")),
                    ("cents", col("price") * 100)]))
    return (orders.hashJoin(QueryMonad.table("customer"), col("ckey"), col("c_custkey"))
            .fold([Q.AggSpec("count", None, "n"), Q.AggSpec("sum", col("cents"), "cents")]))


def fixed_points(config, plan, catalog, query_name):
    """Yield ``(optimizations, program, context)`` at every level of the
    stack, ``program`` being the level's fixed point."""
    context = CompilationContext(catalog=catalog, flags=config.flags,
                                 query_name=query_name)
    stack, language, program = config.stack, QPLAN, plan
    while True:
        optimizations = stack.optimizations_for(language)
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


class TestDeclarations:
    def test_every_listed_pass_states_what_it_enables(self):
        """The nine passes the configurations list each carry a declaration
        of their own; only folding's is the conservative "every step"."""
        listed = {type(opt) for name in CONFIG_NAMES
                  for opt in build_config(name).stack.optimizations}
        assert len(listed) == 9
        assert all("enables" in vars(cls) for cls in listed)
        assert [cls.__name__ for cls in listed if cls.enables is None] \
            == ["DataflowFolding"]
        # one pass says more per change than its declaration
        assert [cls.__name__ for cls in listed if "enables_after" in vars(cls)] \
            == ["DeadCodeElimination"]
        # a declared class is a pass some stack lists beside the declarer
        assert all(enabled in listed for cls in listed
                   for enabled in cls.enables or ())

    def test_pass_runs_on_the_planned_queries_are_pinned(self, tpch_catalog):
        """dblab-5, planner on, 22 queries: 8 steps each is 176 runs; folding
        changes 3 programs and re-queues the two passes before it and itself
        (9 more); no sweep of DCE's takes a reader from a branch, an
        allocation or a write.  The round-robin made 317 runs for the same
        60 changes."""
        config = build_config("dblab-5", planner=True)
        compiler = QueryCompiler(config.stack, config.flags)
        runs = changed = requeued = 0
        for query in QUERY_NAMES:
            lowered = compiler.lower(build_query(query), tpch_catalog, query)
            for phase in lowered.phases:
                assert "bound" not in phase.detail
                runs += phase.runs
                changed += phase.changed
                requeued += phase.requeued
        assert (runs, changed, requeued) == (185, 60, 9)

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_the_confirmation_holds_on_every_planned_query(
            self, tpch_catalog, config_name):
        """``verify=True`` runs every pass once more on each settled program
        (and raises ``check="fixpoint"`` if one still changes it)."""
        config = build_config(config_name, planner=True)
        compiler = QueryCompiler(config.stack, config.flags, verify=True)
        for query in QUERY_NAMES:
            assert compiler.lower(build_query(query), tpch_catalog, query).program


class TestDrivers:
    def test_report_separates_changers_from_runs(self):
        """``applied`` names the passes that changed the program, ``runs``
        counts every pass run, and — undeclared steps re-queue every step —
        the no-op pass still queued when the last changer ran is not run a
        second time."""
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
        # pass 1: a, fold (changes: re-queues a and itself), b; pass 2: a,
        # fold — `b` already returned its input for this very program
        assert calls == ["a", "fold", "b", "a", "fold"]
        assert report.runs == 5 and report.iterations == 2

    def test_the_planner_fixpoint_is_the_stack_driver(self, tiny_catalog, monkeypatch):
        """``apply_rules_fixpoint`` hands one rule sweep to ``apply_fixpoint``:
        same report type, the confirming sweep counted, and ``applied`` naming
        the rule applications rather than the sweep."""
        handed = []

        def spy(steps, plan, context, *args, **kwargs):
            handed.append([step.name for step in steps])
            return apply_fixpoint(steps, plan, context, *args, **kwargs)

        monkeypatch.setattr(rewrite, "apply_fixpoint", spy)
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(join, (col("r_name") == "R1") & (col("s_val") > 1.0))
        context = PlannerContext(catalog=tiny_catalog)
        pushed, report = apply_rules_fixpoint(raw, [PredicatePushdown()], context)
        assert handed == [["rewrite-sweep"]]
        assert isinstance(report, FixpointReport) and report.reached_fixpoint
        assert pushed is not raw and report.iterations == 2 and report.runs == 2
        assert report.applied == context.applied
        assert set(report.applied) == {"predicate-pushdown"}
        _, settled = apply_rules_fixpoint(pushed, [PredicatePushdown()], context)
        assert settled.iterations == 1 and settled.applied == []

    def test_the_driver_never_fingerprints_on_the_default_path(
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
    @staticmethod
    def _feed(digest, config_name, planner, catalog):
        config = build_config(config_name, planner=planner)
        compiler = QueryCompiler(config.stack, config.flags)
        for query in QUERY_NAMES:
            QueryCompiler.clear_cache()
            reset_symbol_counter()
            source = compiler.compile(build_query(query), catalog, query).source
            digest.update(f"{config_name}/{query}\n".encode())
            digest.update(source.encode())

    def test_generated_source_is_byte_identical(self, tpch_catalog):
        digest = hashlib.sha256()
        for config_name in CONFIG_NAMES:
            self._feed(digest, config_name, False, tpch_catalog)
        assert digest.hexdigest() == GOLDEN_SOURCE_SHA256[False]

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_planned_source_is_byte_identical(self, tpch_catalog, config_name):
        digest = hashlib.sha256()
        self._feed(digest, config_name, True, tpch_catalog)
        assert digest.hexdigest() == GOLDEN_SOURCE_SHA256[True][config_name]

    def test_planned_trees_are_identical(self, tpch_catalog):
        digest = hashlib.sha256()
        for options_name in ("all_rules", "exact_order"):
            options = getattr(PlannerOptions, options_name)()
            for query in QUERY_NAMES:
                planned = Planner(tpch_catalog, options).optimize(build_query(query))
                digest.update(f"{options_name}/{query}\n".encode())
                digest.update(Q.plan_fingerprint(planned).encode())
        assert digest.hexdigest() == GOLDEN_PLAN_SHA256

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_generated_qmonad_source_is_byte_identical(self, tpch_catalog,
                                                       config_name):
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        QueryCompiler.clear_cache()  # chains are cached too
        reset_symbol_counter()
        if GOLDEN_QMONAD_SHA256[config_name] is None:
            with pytest.raises(StackValidationError):
                compiler.compile(fusable_chain(), tpch_catalog, "chain")
            return
        source = compiler.compile(fusable_chain(), tpch_catalog, "chain").source
        assert hashlib.sha256(source.encode()).hexdigest() \
            == GOLDEN_QMONAD_SHA256[config_name]
