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

from repro.bench.harness import assert_rows_equivalent
from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.dsl.qmonad import QueryMonad
from repro.engine.volcano import VolcanoEngine
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
#: QUERY_NAMES; planner on: one digest per configuration.  All were re-pinned
#: when pipeline breakers began to store values and row positions: a lone
#: sum / count / min / max lives in its table slot, a hash build stores the
#: row position when its probes read only base columns at one position, else
#: only the fields they read, and nothing when they read none.  Planner off
#: and on alike, that changed every query's source except Q1 (one
#: multi-slot group, no build) everywhere, Q22 under dblab-4 / dblab-5, and
#: Q12 and Q14 under template-expander / dblab-2.  The planner-off digest and
#: those of dblab-3 / dblab-4 / dblab-5 / tpch-compliant were re-pinned again
#: when folding began to drop an ``if_`` arm that a literal condition never
#: selects even when the arm writes: the one source that moved is Q13's, which
#: lost its ``if False:`` arm around the count's slot update (three lines).
GOLDEN_SOURCE_SHA256 = {
    False: "f5dcceba93603bb993ed1401fc0f5cda080f82317cce94f5f76b7cc82de89318",
    True: {
        "template-expander": "a222fc8fddab2bf6a46b51d160eb8de35bc5961f59d84e50295f9ae18e5fbf05",
        "dblab-2": "0641f673e9d240a466ab2eb8eef471e4c1736ecd6b5e1165d4c26eafcc93bb23",
        "dblab-3": "31b4d9f44feb4bc7366511a7410dd2725e50740510a3c2404669ac11349b680b",
        "dblab-4": "9a122eb8137faf627de90f00a3eb572cb49bae70db625249c87924af66ef838d",
        "dblab-5": "7be8943a0886d9c1890db0ad4c3ecbc84ee4c7652076ca01198919e09d01c343",
        "tpch-compliant": "3a847a8fdcc2e8969afe34017a60b95d1c02d7b30dc1022332d83a8a58fa4cd5",
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
#: re-pinned with the source digests above (the chain ends in a fold).  The
#: digests above compile QPlan only and cannot see a QMonad pass land in the
#: wrong stack: fusion runs in dblab-5 / tpch-compliant and nowhere else
#: (with it, dblab-3 would generate tpch-compliant's source and dblab-4
#: dblab-5's).  ``None``: the one-lowering stack has no QMonad front end.
GOLDEN_QMONAD_SHA256 = {
    "template-expander": None,
    "dblab-2": "2e42ea5c824ed1f5608fc779ad49e7a63b7078a09e2ee3e0005aa996b6ca901c",
    "dblab-3": "052287cfb68b1a7174c10da5d20b82dab6ee623d699ef0b400785c7e4350c40f",
    "dblab-4": "7bee63e3ec440d6108599b5cae9fd1ac11599dee1f852ca3b76ed41b2c310ffd",
    "dblab-5": "62ef3abbb0fe22f408a3e6cc879a89434a5b76fedad555758e284d30c1fa117a",
    "tpch-compliant": "39e51224b7a50c88d03f43cbe1a0e20d35aa5d833ad530dd6ac547d060d8be9f",
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
        """The seven passes the configurations list each carry a declaration
        of their own; only folding's is the conservative "every step"."""
        listed = {type(opt) for name in CONFIG_NAMES
                  for opt in build_config(name).stack.optimizations}
        assert len(listed) == 7
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
        """dblab-5, planner on, 22 queries: 6 steps each is 132 runs; folding
        changes 17 programs — mostly by dropping the NULL guards of folds
        over columns with no NULL — and re-queues itself, the first ScaLite
        pass (17 more); Q13's count guard over a padded NULL, whose writing
        arm the value analysis proves never taken, goes in the first run;
        no sweep of DCE's takes a reader from a branch, an allocation or a
        write."""
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
        assert (runs, changed, requeued) == (149, 74, 17)

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

    @pytest.mark.parametrize("config_name",
                             ["dblab-3", "dblab-4", "dblab-5", "tpch-compliant"])
    def test_q13_keeps_no_branch_on_a_literal(self, tpch_catalog, config_name):
        """The stacks that run dataflow folding drop the ``if False:`` arm
        around Q13's count update, and the query still returns its rows."""
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags)
        QueryCompiler.clear_cache()
        reset_symbol_counter()
        compiled = compiler.compile(build_query("Q13"), tpch_catalog, "Q13")
        assert "if False" not in compiled.source
        assert "if True" not in compiled.source
        assert_rows_equivalent(
            VolcanoEngine(tpch_catalog).execute(build_query("Q13")),
            compiled.run(tpch_catalog))

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
