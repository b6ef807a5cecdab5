"""Unit tests for the individual plan rewrite rules.

Structural assertions run with field pruning disabled so the rewritten tree
shape is easy to inspect; every structural case also checks exact result
parity (values *and* order) against the raw plan on the Volcano reference.
"""
import pytest

from repro.dsl import qplan as Q
from repro.dsl.expr import BinOp, Col, col, columns_used, lit
from repro.engine.volcano import execute as volcano_execute
from repro.engine.vectorized import execute as vectorized_execute
from repro.planner import (CardinalityEstimator, Planner, PlannerContext, PlannerError,
                           PlannerOptions, PlanRule, apply_rules_fixpoint, prune_plan)
from repro.storage.catalog import Catalog
from repro.storage.schema import TableSchema, int_column, string_column

#: structural-assertion options: no pruning and no cost-based join rewrites,
#: so the rewritten tree shape is determined by the rule under test alone
STRUCTURE = PlannerOptions(field_pruning=False, join_strategy=False)


def check_parity(raw, catalog, options=None, ordered=True):
    """Optimize ``raw`` and verify engine results; returns the optimized plan."""
    optimized = Planner(catalog, options).optimize(raw)
    raw_rows = volcano_execute(raw, catalog)
    opt_rows = volcano_execute(optimized, catalog)
    if ordered:
        assert opt_rows == raw_rows
        assert vectorized_execute(optimized, catalog) == \
            vectorized_execute(raw, catalog)
    else:
        key = lambda rows: sorted(sorted(r.items()) for r in rows)
        assert key(opt_rows) == key(raw_rows)
    return optimized


@pytest.fixture()
def skewed_catalog() -> Catalog:
    """A star schema with very different table sizes for the cost-based rules:
    fact (60 rows) referencing dima (3 rows) and dimc (8 rows)."""
    catalog = Catalog()
    catalog.register_rows(
        TableSchema("dima", [int_column("a_id"), string_column("a_name")],
                    primary_key=("a_id",)),
        [{"a_id": i, "a_name": f"A{i}"} for i in range(3)])
    catalog.register_rows(
        TableSchema("dimc", [int_column("c_id"), string_column("c_name")],
                    primary_key=("c_id",)),
        [{"c_id": i, "c_name": f"C{i}"} for i in range(8)])
    catalog.register_rows(
        TableSchema("fact", [int_column("f_id"), int_column("f_a"),
                             int_column("f_c"), int_column("f_val")],
                    primary_key=("f_id",)),
        [{"f_id": i, "f_a": i % 3, "f_c": i % 8, "f_val": i * 7 % 11}
         for i in range(60)])
    return catalog


class TestConstantFoldingRule:
    def test_tautological_select_is_removed(self, tiny_catalog):
        raw = Q.Select(Q.Scan("R"), BinOp(">", lit(2), lit(1)))
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Scan)

    def test_literal_true_residual_is_dropped(self, tiny_catalog):
        raw = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                         residual=BinOp("==", lit(1), lit(1)))
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert optimized.residual is None

    def test_folds_inside_projections(self, tiny_catalog):
        raw = Q.Project(Q.Scan("R"), [("x", col("r_id") * BinOp("+", lit(2), lit(3)))])
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        folded = optimized.projections[0][1]
        assert folded.right.value == 5


class TestPredicatePushdownRule:
    def test_adjacent_selects_merge(self, tiny_catalog):
        raw = Q.Select(Q.Select(Q.Scan("R"), col("r_id") > 1), col("r_sid") > 10)
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Select)
        assert isinstance(optimized.child, Q.Scan)

    def test_pushes_below_project_with_substitution(self, tiny_catalog):
        raw = Q.Select(Q.Project(Q.Scan("R"), [("key", col("r_id") + 1)]),
                       col("key") > 2)
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Project)
        pushed = optimized.child
        assert isinstance(pushed, Q.Select)
        assert "r_id" in columns_used(pushed.predicate)

    def test_splits_conjuncts_across_inner_join(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(join, (col("r_name") == "R1")
                       & (col("s_val") > 1.0)
                       & (col("r_id") < col("s_id")))
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.HashJoin)
        assert isinstance(optimized.left, Q.Select)    # r_name conjunct
        assert isinstance(optimized.right, Q.Select)   # s_val conjunct
        assert optimized.residual is not None          # two-sided conjunct

    def test_semi_join_filters_stay_above(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                          kind="leftsemi")
        raw = Q.Select(join, col("r_name") == "R1")
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        # bucket-order emission makes left-pushes order-unsafe for semi joins
        assert isinstance(optimized, Q.Select)
        assert isinstance(optimized.child, Q.HashJoin)

    def test_pushes_group_key_filter_below_aggregation(self, tiny_catalog):
        agg = Q.Agg(Q.Scan("R"), [("name", col("r_name"))],
                    [Q.AggSpec("count", None, "n")])
        raw = Q.Select(agg, col("name") == "R1")
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Agg)
        assert isinstance(optimized.child, Q.Select)

    def test_aggregate_output_filter_stays_above(self, tiny_catalog):
        agg = Q.Agg(Q.Scan("R"), [("name", col("r_name"))],
                    [Q.AggSpec("count", None, "n")])
        raw = Q.Select(agg, col("n") > 1)
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Select)

    def test_pushes_below_sort_but_not_limit(self, tiny_catalog):
        sorted_plan = Q.Sort(Q.Scan("R"), [(col("r_id"), "desc")])
        optimized = check_parity(Q.Select(sorted_plan, col("r_id") > 1),
                                 tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Sort)
        limited = Q.Limit(Q.Sort(Q.Scan("R"), [(col("r_id"), "desc")]), 3)
        optimized = check_parity(Q.Select(limited, col("r_id") > 1),
                                 tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Select)

    def test_filter_sinks_through_multiple_levels(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(Q.Sort(join, [(col("s_val"), "asc")]), col("r_name") == "R1")
        optimized = check_parity(raw, tiny_catalog, STRUCTURE)
        assert isinstance(optimized, Q.Sort)
        assert isinstance(optimized.child, Q.HashJoin)
        assert isinstance(optimized.child.left, Q.Select)


class TestJoinStrategyRules:
    def test_build_side_swap_builds_on_the_smaller_input(self, skewed_catalog):
        raw = Q.HashJoin(Q.Scan("fact"), Q.Scan("dima"), col("f_a"), col("a_id"))
        options = PlannerOptions(field_pruning=False, join_strategy=True)
        optimized = check_parity(raw, skewed_catalog, options, ordered=False)
        assert isinstance(optimized, Q.HashJoin)
        assert optimized.left.table == "dima"
        assert optimized.right.table == "fact"

    def test_swap_flips_residual_sides(self, skewed_catalog):
        raw = Q.HashJoin(Q.Scan("fact"), Q.Scan("dima"), col("f_a"), col("a_id"),
                         residual=BinOp("<", Col("f_val", "left"), Col("a_id", "right")))
        options = PlannerOptions(field_pruning=False, join_strategy=True)
        optimized = check_parity(raw, skewed_catalog, options, ordered=False)
        assert optimized.left.table == "dima"
        assert optimized.residual.left.side == "right"

    def test_swap_fires_under_the_default_options(self, skewed_catalog):
        raw = Q.HashJoin(Q.Scan("fact"), Q.Scan("dima"), col("f_a"), col("a_id"))
        optimized = Planner(skewed_catalog).optimize(raw)
        assert optimized.left.table == "dima"

    def test_no_swap_under_exact_order_options(self, skewed_catalog):
        raw = Q.HashJoin(Q.Scan("fact"), Q.Scan("dima"), col("f_a"), col("a_id"))
        optimized = Planner(skewed_catalog,
                            PlannerOptions.exact_order()).optimize(raw)
        assert optimized.left.table == "fact"

    def test_greedy_reorder_starts_from_the_smallest_input(self, skewed_catalog):
        from repro.planner.reorder import reorder_join_chains

        chain = Q.HashJoin(
            Q.HashJoin(Q.Scan("fact"), Q.Scan("dimc"), col("f_c"), col("c_id")),
            Q.Scan("dima"), col("f_a"), col("a_id"))
        context = PlannerContext(catalog=skewed_catalog)
        reordered = reorder_join_chains(chain, context,
                                        CardinalityEstimator(skewed_catalog))

        def spine_tables(node):
            tables = []
            while isinstance(node, Q.HashJoin):
                tables.append(node.right.table)
                node = node.left
            tables.append(node.table)
            return list(reversed(tables))

        # greedy: start at dima (3 rows), join fact (the only connected
        # input), then dimc — instead of the written fact-first order
        assert spine_tables(reordered) == ["dima", "fact", "dimc"]
        key = lambda rows: sorted(sorted(r.items()) for r in rows)
        assert key(volcano_execute(reordered, skewed_catalog)) == \
            key(volcano_execute(chain, skewed_catalog))

    def test_full_strategy_pipeline_is_multiset_correct(self, skewed_catalog):
        chain = Q.HashJoin(
            Q.HashJoin(Q.Scan("fact"), Q.Scan("dimc"), col("f_c"), col("c_id")),
            Q.Scan("dima"), col("f_a"), col("a_id"))
        options = PlannerOptions(field_pruning=False, join_strategy=True)
        check_parity(chain, skewed_catalog, options, ordered=False)

    def test_reorder_keeps_residual_edges(self, skewed_catalog):
        # the dima edge arrives via a residual, not a key pair
        chain = Q.HashJoin(
            Q.HashJoin(Q.Scan("fact"), Q.Scan("dimc"), col("f_c"), col("c_id")),
            Q.Scan("dima"), col("f_a"), col("a_id"))
        options = PlannerOptions(join_strategy=True)
        check_parity(chain, skewed_catalog, options, ordered=False)


class TestFieldPruning:
    def test_scan_fields_narrowed_to_what_is_used(self, tiny_catalog):
        raw = Q.Agg(Q.Scan("R"), [("name", col("r_name"))],
                    [Q.AggSpec("count", None, "n")])
        optimized = check_parity(raw, tiny_catalog)
        assert optimized.child.fields == ("r_name",)

    def test_unused_projections_are_pruned(self, tiny_catalog):
        project = Q.Project(Q.Scan("R"), [("a", col("r_id")), ("b", col("r_name"))])
        raw = Q.Agg(project, [("a", col("a"))], [Q.AggSpec("count", None, "n")])
        optimized = check_parity(raw, tiny_catalog)
        assert [name for name, _ in optimized.child.projections] == ["a"]
        assert optimized.child.child.fields == ("r_id",)

    def test_unused_aggregates_are_pruned(self, tiny_catalog):
        agg = Q.Agg(Q.Scan("S"), [("rid", col("s_rid"))],
                    [Q.AggSpec("sum", col("s_val"), "total"),
                     Q.AggSpec("count", None, "n")])
        raw = Q.Project(agg, [("rid", col("rid")), ("total", col("total"))])
        optimized = check_parity(raw, tiny_catalog)
        assert [spec.name for spec in optimized.child.aggregates] == ["total"]

    def test_having_keeps_its_aggregate(self, tiny_catalog):
        agg = Q.Agg(Q.Scan("S"), [("rid", col("s_rid"))],
                    [Q.AggSpec("sum", col("s_val"), "total"),
                     Q.AggSpec("count", None, "n")],
                    having=col("n") > 1)
        raw = Q.Project(agg, [("rid", col("rid"))])
        optimized = check_parity(raw, tiny_catalog)
        assert {spec.name for spec in optimized.child.aggregates} == {"n"}

    def test_top_level_output_is_never_pruned(self, tiny_catalog):
        raw = Q.Scan("R")
        optimized = Planner(tiny_catalog).optimize(raw)
        assert optimized is raw
        pruned = prune_plan(Q.Scan("R"), tiny_catalog)
        assert Q.output_fields(pruned, tiny_catalog) == ["r_id", "r_name", "r_sid"]

    def test_residual_columns_survive_pruning(self, tiny_catalog):
        raw = Q.Project(
            Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                       residual=col("r_id") < col("s_id")),
            [("name", col("r_name"))])
        optimized = check_parity(raw, tiny_catalog)
        join = optimized.child
        # R needs all three columns (projection + key + residual): unpruned.
        # S keeps the key and the residual column but drops s_val.
        assert join.left.fields is None
        assert join.right.fields == ("s_id", "s_rid")


class TestCardinalityEstimator:
    def test_scan_estimates_match_statistics(self, tiny_catalog):
        estimator = CardinalityEstimator(tiny_catalog)
        assert estimator.estimate_rows(Q.Scan("R")) == 5.0
        assert estimator.estimate_rows(Q.Scan("S")) == 6.0

    def test_equality_selectivity_uses_distinct_counts(self, tiny_catalog):
        estimator = CardinalityEstimator(tiny_catalog)
        # r_name has 3 distinct values over 5 rows
        estimate = estimator.estimate_rows(
            Q.Select(Q.Scan("R"), col("r_name") == "R1"))
        assert estimate == pytest.approx(5.0 / 3.0)

    def test_limit_caps_the_estimate(self, tiny_catalog):
        estimator = CardinalityEstimator(tiny_catalog)
        assert estimator.estimate_rows(Q.Limit(Q.Scan("S"), 2)) == 2.0

    def test_selectivity_is_clamped(self, tiny_catalog):
        estimator = CardinalityEstimator(tiny_catalog)
        predicate = (col("r_id") > 0) | (col("r_id") < 100)
        assert 0.0 <= estimator.selectivity(predicate) <= 1.0


class TestRewriteFramework:
    def test_empty_rule_list_reaches_fixpoint(self, tiny_catalog):
        plan = Q.Scan("R")
        context = PlannerContext(catalog=tiny_catalog)
        result, report = apply_rules_fixpoint(plan, [], context)
        assert result is plan and report.reached_fixpoint

    def test_runaway_rule_is_detected(self, tiny_catalog):
        class Runaway(PlanRule):
            name = "runaway"

            def apply(self, node, context):
                return Q.Limit(node, 5)

        with pytest.raises(PlannerError, match="runaway"):
            apply_rules_fixpoint(Q.Scan("R"), [Runaway()],
                                 PlannerContext(catalog=tiny_catalog))

    def test_optimizer_is_idempotent(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(join, (col("r_name") == "R1") & (col("s_val") > 1.0))
        planner = Planner(tiny_catalog)
        once = planner.optimize(raw)
        twice = planner.optimize(once)
        assert Q.plan_fingerprint(once) == Q.plan_fingerprint(twice)
