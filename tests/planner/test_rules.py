"""Unit tests for the individual plan rewrite rules.

Structural assertions drive the rule under test alone to its fixed point, so
the rewritten tree shape is easy to inspect; every structural case also
checks result parity (values *and* order, or the multiset for the join
rules) against the raw plan on the Volcano reference.
"""
import pytest

from repro.dsl import qplan as Q
from repro.dsl.expr import BinOp, Col, col, columns_used, lit
from repro.engine.volcano import execute as volcano_execute
from repro.engine.vectorized import execute as vectorized_execute
from repro.planner import (BuildSideSwap, CardinalityEstimator, ConstantFolding,
                           Planner, PlannerContext, PlannerError, PlannerOptions,
                           PlanRule, PredicatePushdown, apply_rules_fixpoint,
                           prune_plan)
from repro.planner.reorder import reorder_join_chains
from repro.stack.transformation import MAX_ITERATIONS
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column, string_column

def assert_parity(raw, optimized, catalog, ordered=True):
    """Verify engine results of ``optimized`` against ``raw``; returns it."""
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


def check_parity(raw, catalog, options=None, ordered=True):
    """Optimize ``raw`` with the planner and verify engine results."""
    return assert_parity(raw, Planner(catalog, options).optimize(raw), catalog,
                         ordered)


def rewritten(raw, catalog, rule, ordered=True):
    """``raw`` rewritten by ``rule`` alone, to its fixed point — no other
    rule, no pruning, no join strategy, no access path — so the tree shape
    is the rule's; engine results are verified against ``raw``."""
    plan, _ = apply_rules_fixpoint(raw, [rule], PlannerContext(catalog=catalog))
    Q.validate(plan, catalog)
    return assert_parity(raw, plan, catalog, ordered)


@pytest.fixture()
def skewed_catalog() -> Catalog:
    """A star schema with very different table sizes for the cost-based rules:
    fact (60 rows) referencing dima (3 rows) and dimc (8 rows)."""
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("dima", [int_column("a_id"), string_column("a_name")],
                    primary_key=("a_id",)),
        {"a_id": list(range(3)), "a_name": [f"A{i}" for i in range(3)]}))
    catalog.register(ColumnarTable(
        TableSchema("dimc", [int_column("c_id"), string_column("c_name")],
                    primary_key=("c_id",)),
        {"c_id": list(range(8)), "c_name": [f"C{i}" for i in range(8)]}))
    catalog.register(ColumnarTable(
        TableSchema("fact", [int_column("f_id"), int_column("f_a"),
                             int_column("f_c"), int_column("f_val")],
                    primary_key=("f_id",)),
        {"f_id": list(range(60)), "f_a": [i % 3 for i in range(60)],
         "f_c": [i % 8 for i in range(60)],
         "f_val": [i * 7 % 11 for i in range(60)]}))
    return catalog


class TestConstantFoldingRule:
    def test_tautological_select_is_removed(self, tiny_catalog):
        raw = Q.Select(Q.Scan("R"), BinOp(">", lit(2), lit(1)))
        optimized = rewritten(raw, tiny_catalog, ConstantFolding())
        assert isinstance(optimized, Q.Scan)

    def test_literal_true_residual_is_dropped(self, tiny_catalog):
        raw = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                         residual=BinOp("==", lit(1), lit(1)))
        optimized = rewritten(raw, tiny_catalog, ConstantFolding())
        assert optimized.residual is None

    def test_folds_inside_projections(self, tiny_catalog):
        raw = Q.Project(Q.Scan("R"), [("x", col("r_id") * BinOp("+", lit(2), lit(3)))])
        optimized = rewritten(raw, tiny_catalog, ConstantFolding())
        folded = optimized.projections[0][1]
        assert folded.right.value == 5


class TestPredicatePushdownRule:
    def test_adjacent_selects_merge(self, tiny_catalog):
        raw = Q.Select(Q.Select(Q.Scan("R"), col("r_id") > 1), col("r_sid") > 10)
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Select)
        assert isinstance(optimized.child, Q.Scan)

    def test_pushes_below_project_with_substitution(self, tiny_catalog):
        raw = Q.Select(Q.Project(Q.Scan("R"), [("key", col("r_id") + 1)]),
                       col("key") > 2)
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Project)
        pushed = optimized.child
        assert isinstance(pushed, Q.Select)
        assert "r_id" in columns_used(pushed.predicate)

    def test_splits_conjuncts_across_inner_join(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(join, (col("r_name") == "R1")
                       & (col("s_val") > 1.0)
                       & (col("r_id") < col("s_id")))
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.HashJoin)
        assert isinstance(optimized.left, Q.Select)    # r_name conjunct
        assert isinstance(optimized.right, Q.Select)   # s_val conjunct
        assert optimized.residual is not None          # two-sided conjunct

    def test_semi_join_filters_stay_above(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                          kind="leftsemi")
        raw = Q.Select(join, col("r_name") == "R1")
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        # bucket-order emission makes left-pushes order-unsafe for semi joins
        assert isinstance(optimized, Q.Select)
        assert isinstance(optimized.child, Q.HashJoin)

    def test_pushes_group_key_filter_below_aggregation(self, tiny_catalog):
        agg = Q.Agg(Q.Scan("R"), [("name", col("r_name"))],
                    [Q.AggSpec("count", None, "n")])
        raw = Q.Select(agg, col("name") == "R1")
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Agg)
        assert isinstance(optimized.child, Q.Select)

    def test_aggregate_output_filter_stays_above(self, tiny_catalog):
        agg = Q.Agg(Q.Scan("R"), [("name", col("r_name"))],
                    [Q.AggSpec("count", None, "n")])
        raw = Q.Select(agg, col("n") > 1)
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Select)

    def test_pushes_below_sort_but_not_limit(self, tiny_catalog):
        sorted_plan = Q.Sort(Q.Scan("R"), [(col("r_id"), "desc")])
        optimized = rewritten(Q.Select(sorted_plan, col("r_id") > 1),
                              tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Sort)
        limited = Q.Limit(Q.Sort(Q.Scan("R"), [(col("r_id"), "desc")]), 3)
        optimized = rewritten(Q.Select(limited, col("r_id") > 1),
                              tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Select)

    def test_filter_sinks_through_multiple_levels(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(Q.Sort(join, [(col("s_val"), "asc")]), col("r_name") == "R1")
        optimized = rewritten(raw, tiny_catalog, PredicatePushdown())
        assert isinstance(optimized, Q.Sort)
        assert isinstance(optimized.child, Q.HashJoin)
        assert isinstance(optimized.child.left, Q.Select)


class TestJoinStrategyRules:
    def test_build_side_swap_builds_on_the_smaller_input(self, skewed_catalog):
        raw = Q.HashJoin(Q.Scan("fact"), Q.Scan("dima"), col("f_a"), col("a_id"))
        swap = BuildSideSwap(CardinalityEstimator(skewed_catalog))
        optimized = rewritten(raw, skewed_catalog, swap, ordered=False)
        assert isinstance(optimized, Q.HashJoin)
        assert optimized.left.table == "dima"
        assert optimized.right.table == "fact"

    def test_swap_flips_residual_sides(self, skewed_catalog):
        raw = Q.HashJoin(Q.Scan("fact"), Q.Scan("dima"), col("f_a"), col("a_id"),
                         residual=BinOp("<", Col("f_val", "left"), Col("a_id", "right")))
        swap = BuildSideSwap(CardinalityEstimator(skewed_catalog))
        optimized = rewritten(raw, skewed_catalog, swap, ordered=False)
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
        # the planner's join-strategy phase alone: reorder, then swap
        context = PlannerContext(catalog=skewed_catalog)
        estimator = CardinalityEstimator(skewed_catalog)
        reordered = reorder_join_chains(chain, context, estimator)
        swapped, _ = apply_rules_fixpoint(reordered, [BuildSideSwap(estimator)],
                                          context)
        assert_parity(chain, swapped, skewed_catalog, ordered=False)

    def test_reorder_keeps_residual_edges(self, skewed_catalog):
        # the dima edge arrives via a residual, not a key pair
        chain = Q.HashJoin(
            Q.HashJoin(Q.Scan("fact"), Q.Scan("dimc"), col("f_c"), col("c_id")),
            Q.Scan("dima"), col("f_a"), col("a_id"))
        check_parity(chain, skewed_catalog, ordered=False)


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


class TestPlannerOptions:
    def test_only_the_optional_phases_are_switches(self, tiny_catalog):
        """The logical rule sweep and field pruning always run: with every
        switch off, all four still rewrite the plan."""
        import dataclasses
        assert [f.name for f in dataclasses.fields(PlannerOptions)] == [
            "join_strategy", "access_paths", "validate_rewrites"]
        raw = Q.Project(
            Q.Limit(Q.Sort(Q.Select(Q.Scan("S"), (col("s_val") > 1.0) & (lit(1) == lit(1))),
                           [(col("s_val"), "desc")]), 2),
            [("v", col("s_val"))])
        options = PlannerOptions(join_strategy=False, access_paths=False)
        report = Planner(tiny_catalog, options).explain(raw)
        assert {"constant-folding", "topk-fusion", "field-pruning"} <= set(report.applied)
        pushed = Q.Select(Q.Project(Q.Scan("S"), [("v", col("s_val"))]), col("v") > 1.0)
        assert "predicate-pushdown" in Planner(tiny_catalog, options).explain(pushed).applied

    @pytest.mark.parametrize("preset", ["all_rules", "exact_order", "no_access_paths"])
    def test_every_preset_runs_the_sweep_and_pruning(self, tiny_catalog, preset):
        """No preset can turn the always-on phases off, and what they
        rewrite still returns the unplanned plan's rows."""
        raw = Q.Project(
            Q.Limit(Q.Sort(Q.Select(Q.Scan("S"), (col("s_val") > 1.0) & (lit(1) == lit(1))),
                           [(col("s_val"), "desc")]), 2),
            [("v", col("s_val"))])
        planner = Planner(tiny_catalog, getattr(PlannerOptions, preset)())
        report = planner.explain(raw)
        assert {"constant-folding", "topk-fusion", "field-pruning"} <= set(report.applied)
        assert volcano_execute(planner.optimize(raw), tiny_catalog) == \
            volcano_execute(raw, tiny_catalog)


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

    def test_a_rule_set_that_never_settles_stops_at_the_bound(self, tiny_catalog):
        """A rule that reaches a local fixed point in every sweep but changes
        the plan again in the next one: the sweeps stop at ``MAX_ITERATIONS``
        with ``reached_fixpoint=False``."""
        class Restless(PlanRule):
            name = "restless"
            fired = False

            def apply(self, node, context):
                if not isinstance(node, Q.Limit):
                    return None
                self.fired = not self.fired   # once per sweep at the root
                return Q.Limit(node.child, node.count + 1) if self.fired else None

        plan, report = apply_rules_fixpoint(Q.Limit(Q.Scan("R"), 0), [Restless()],
                                            PlannerContext(catalog=tiny_catalog))
        assert report.iterations == MAX_ITERATIONS == 8
        assert not report.reached_fixpoint
        assert plan.count == MAX_ITERATIONS

    def test_optimizer_is_idempotent(self, tiny_catalog):
        join = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        raw = Q.Select(join, (col("r_name") == "R1") & (col("s_val") > 1.0))
        planner = Planner(tiny_catalog)
        once = planner.optimize(raw)
        twice = planner.optimize(once)
        assert Q.plan_fingerprint(once) == Q.plan_fingerprint(twice)
