"""Tests for the QMonad collection front end and its shortcut-fusion lowering."""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import BinOp, col
from repro.dsl.qmonad import QMonadError, QueryMonad, to_qplan
from repro.engine.volcano import execute
from repro.stack import CompilationContext, OptimizationFlags, QMONAD
from repro.stack.configs import build_config
from repro.transforms.fusion import MonadFusionRules


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


def example_query():
    """The paper's Figure 4c: R.filter(name == "R1").hashJoin(S).count."""
    return (QueryMonad.table("R")
            .filter(col("r_name") == "R1")
            .hashJoin(QueryMonad.table("S"), col("r_sid"), col("s_rid"))
            .count("count"))


class TestConstruction:
    def test_fluent_chain_builds_tree(self):
        query = example_query()
        assert query.op == "fold"
        assert query.children[0].op == "hashJoin"
        assert "table(R)" in repr(query)

    def test_invalid_join_kind_rejected(self):
        with pytest.raises(QMonadError):
            QueryMonad.table("R").hashJoin(QueryMonad.table("S"), col("a"), col("b"),
                                           kind="full-outer")

    def test_to_qplan_structure(self):
        plan = to_qplan(example_query())
        assert isinstance(plan, Q.Agg)
        assert isinstance(plan.child, Q.HashJoin)
        assert isinstance(plan.child.left, Q.Select)
        assert isinstance(plan.child.left.child, Q.Scan)

    def test_to_qplan_covers_every_operator(self):
        query = (QueryMonad.table("R", fields=("r_id", "r_name"))
                 .map([("key", col("r_id"))])
                 .groupBy([("key", col("key"))], [Q.AggSpec("count", None, "n")])
                 .sortBy([(col("n"), "desc")])
                 .take(3))
        plan = to_qplan(query)
        kinds = [type(node).__name__ for node in Q.walk(plan)]
        assert kinds == ["Limit", "Sort", "Agg", "Project", "Scan"]

    def test_unknown_operator_rejected(self):
        with pytest.raises(QMonadError):
            to_qplan(QueryMonad("teleport", {}))


class TestToQPlanRoundTrip:
    """``to_qplan`` produces exactly the hand-built plan for every operator —
    checked by structural fingerprint equality, the same notion of identity
    the compiled-query cache uses."""

    def assert_same_plan(self, query, expected):
        assert Q.plan_fingerprint(to_qplan(query)) == Q.plan_fingerprint(expected)

    def test_table(self):
        self.assert_same_plan(QueryMonad.table("R"), Q.Scan("R"))
        self.assert_same_plan(QueryMonad.table("R", fields=("r_id", "r_name")),
                              Q.Scan("R", ("r_id", "r_name")))

    def test_filter(self):
        self.assert_same_plan(
            QueryMonad.table("R").filter(col("r_name") == "R1"),
            Q.Select(Q.Scan("R"), col("r_name") == "R1"))

    def test_map(self):
        self.assert_same_plan(
            QueryMonad.table("R").map([("key", col("r_id") + 1)]),
            Q.Project(Q.Scan("R"), [("key", col("r_id") + 1)]))

    @pytest.mark.parametrize("kind", Q.JOIN_KINDS)
    def test_hash_join_kinds(self, kind):
        self.assert_same_plan(
            QueryMonad.table("R").hashJoin(QueryMonad.table("S"),
                                           col("r_sid"), col("s_rid"), kind=kind),
            Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                       kind=kind))

    def test_hash_join_residual(self):
        residual = col("r_id") < col("s_id")
        self.assert_same_plan(
            QueryMonad.table("R").hashJoin(QueryMonad.table("S"),
                                           col("r_sid"), col("s_rid"),
                                           residual=residual),
            Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                       residual=residual))

    def test_group_by_with_having(self):
        aggregates = [Q.AggSpec("sum", col("s_val"), "total")]
        having = col("total") > 2.0
        self.assert_same_plan(
            QueryMonad.table("S").groupBy([("rid", col("s_rid"))], aggregates,
                                          having=having),
            Q.Agg(Q.Scan("S"), [("rid", col("s_rid"))], tuple(aggregates),
                  having=having))

    def test_folds(self):
        self.assert_same_plan(QueryMonad.table("S").count("n"),
                              Q.Agg(Q.Scan("S"), (),
                                    (Q.AggSpec("count", None, "n"),)))
        self.assert_same_plan(QueryMonad.table("S").sum(col("s_val"), "t"),
                              Q.Agg(Q.Scan("S"), (),
                                    (Q.AggSpec("sum", col("s_val"), "t"),)))
        self.assert_same_plan(QueryMonad.table("S").avg(col("s_val"), "m"),
                              Q.Agg(Q.Scan("S"), (),
                                    (Q.AggSpec("avg", col("s_val"), "m"),)))

    def test_sort_by_and_take(self):
        chain = (QueryMonad.table("R")
                 .sortBy([(col("r_id"), "desc")])
                 .take(2))
        self.assert_same_plan(
            chain, Q.Limit(Q.Sort(Q.Scan("R"), [(col("r_id"), "desc")]), 2))

    def test_take_sort_chain_fuses_to_topk_after_planning(self, tiny_catalog):
        from repro.planner import PlannerContext, TopKFusion, apply_rules_fixpoint

        chain = (QueryMonad.table("R")
                 .sortBy([(col("r_id"), "desc"), (col("r_name"), "asc")])
                 .take(3))
        optimized, _ = apply_rules_fixpoint(
            to_qplan(chain), [TopKFusion()], PlannerContext(catalog=tiny_catalog))
        expected = Q.TopK(Q.Scan("R"),
                          [(col("r_id"), "desc"), (col("r_name"), "asc")], 3)
        assert Q.plan_fingerprint(optimized) == Q.plan_fingerprint(expected)
        assert execute(optimized, tiny_catalog) == \
            execute(to_qplan(chain), tiny_catalog)


class TestFusionRules:
    def _context(self):
        return CompilationContext(flags=OptimizationFlags())

    def test_filter_filter_fusion(self):
        query = QueryMonad.table("R").filter(col("r_id") > 1).filter(col("r_sid") > 5)
        fused = MonadFusionRules().run(query, self._context())
        assert fused.op == "filter"
        assert fused.children[0].op == "table"
        assert isinstance(fused.args["predicate"], BinOp)
        assert fused.args["predicate"].op == "and"

    def test_map_map_fusion_composes_projections(self):
        """Figure 5: R.map(f).map(g) -> R.map(g o f)."""
        query = (QueryMonad.table("S")
                 .map([("v2", col("s_val") * 2)])
                 .map([("v4", col("v2") * 2)]))
        fused = MonadFusionRules().run(query, self._context())
        assert fused.op == "map"
        assert fused.children[0].op == "table"
        (name, expr), = fused.args["projections"]
        assert name == "v4"
        # v4 = (s_val * 2) * 2
        assert expr.op == "*"
        assert expr.left.op == "*"

    def test_fusion_preserves_semantics(self, tiny_catalog):
        query = (QueryMonad.table("S")
                 .map([("v2", col("s_val") * 2)])
                 .map([("v4", col("v2") * 2)])
                 .sum(col("v4"), "total"))
        fused = MonadFusionRules().run(query, self._context())
        assert canon(execute(to_qplan(fused), tiny_catalog)) == \
            canon(execute(to_qplan(query), tiny_catalog))

    def test_fusion_is_idempotent(self):
        query = QueryMonad.table("R").filter(col("r_id") > 1).filter(col("r_sid") > 5)
        once = MonadFusionRules().run(query, self._context())
        twice = MonadFusionRules().run(once, self._context())
        assert repr(once) == repr(twice)


class TestCompilation:
    @pytest.mark.parametrize("config_name", ["dblab-2", "dblab-3", "dblab-4", "dblab-5"])
    def test_qmonad_compiles_through_every_stack(self, tiny_catalog, config_name):
        query = example_query()
        reference = execute(to_qplan(query), tiny_catalog)
        config = build_config(config_name)
        compiled = QueryCompiler(config.stack, config.flags).compile(query, tiny_catalog, "qm")
        assert compiled.run(tiny_catalog) == reference

    def test_qmonad_group_by_and_sort(self, tiny_catalog):
        query = (QueryMonad.table("S")
                 .filter(col("s_val") > 1.0)
                 .groupBy([("s_rid", col("s_rid"))],
                          [Q.AggSpec("sum", col("s_val"), "total")])
                 .sortBy([(col("total"), "desc")]))
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(query, tiny_catalog, "qm")
        assert compiled.run(tiny_catalog) == execute(to_qplan(query), tiny_catalog)

    def test_qmonad_and_qplan_front_ends_agree(self, tiny_catalog):
        """Both front ends, same stack, same answer (Section 4.6)."""
        config = build_config("dblab-5")
        compiler = QueryCompiler(config.stack, config.flags)
        monad_result = compiler.compile(example_query(), tiny_catalog, "qm").run(tiny_catalog)
        plan = Q.Agg(
            Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                       Q.Scan("S"), col("r_sid"), col("s_rid")),
            [], [Q.AggSpec("count", None, "count")])
        plan_result = compiler.compile(plan, tiny_catalog, "qp").run(tiny_catalog)
        assert monad_result == plan_result

    def test_stack_rejects_other_program_types(self, tiny_catalog):
        config = build_config("dblab-5")
        from repro.codegen.compiler import CompilerError
        with pytest.raises(CompilerError):
            QueryCompiler(config.stack, config.flags).compile("SELECT 1", tiny_catalog)

    def test_qmonad_language_registered_in_stacks(self):
        for name in ("dblab-2", "dblab-5"):
            config = build_config(name)
            assert QMONAD in config.stack.languages
            assert config.stack.lowering_from(QMONAD) is not None
