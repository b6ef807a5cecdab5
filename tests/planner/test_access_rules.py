"""Tests for the access-path selection rules (repro.planner.access_rules)."""
import pytest

from repro.dsl import qplan as Q
from repro.dsl.expr import col, date, like
from repro.engine.volcano import VolcanoEngine
from repro.planner import (IndexJoinSelection, Planner, PlannerOptions,
                           PrunedScanSelection, index_eligible_build)
from repro.planner.rewrite import PlannerContext
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column
from repro.tpch.queries import build_query


def _context(catalog, options=None):
    return PlannerContext(catalog=catalog,
                          options=options or PlannerOptions())


class TestPrunedScanSelection:
    def test_fires_on_select_over_scan(self, tpch_catalog):
        rule = PrunedScanSelection()
        plan = Q.Select(Q.Scan("lineitem"), col("l_shipdate") > date("1995-03-15"))
        rewritten = rule.apply(plan, _context(tpch_catalog))
        assert isinstance(rewritten, Q.PrunedScan)
        assert rewritten.zone_filters == (("l_shipdate", ">", 19950315),)
        assert rewritten.predicate is plan.predicate

    def test_does_not_refire_on_its_own_output(self, tpch_catalog):
        rule = PrunedScanSelection()
        plan = Q.Select(Q.Scan("lineitem"), col("l_shipdate") > date("1995-03-15"))
        pruned = rule.apply(plan, _context(tpch_catalog))
        assert rule.apply(pruned, _context(tpch_catalog)) is None

    def test_no_prunable_conjunct_no_rewrite(self, tpch_catalog):
        rule = PrunedScanSelection()
        plan = Q.Select(Q.Scan("lineitem"),
                        col("l_commitdate") < col("l_receiptdate"))
        assert rule.apply(plan, _context(tpch_catalog)) is None

    def test_like_prefix_is_a_zone_filter(self, tpch_catalog):
        rule = PrunedScanSelection()
        plan = Q.Select(Q.Scan("part"), like(col("p_type"), "PROMO%"))
        rewritten = rule.apply(plan, _context(tpch_catalog))
        assert rewritten.zone_filters == (("p_type", "prefix", "PROMO"),)


class TestIndexJoinSelection:
    def test_bare_pk_scan_build_becomes_index_join(self, tpch_catalog):
        rule = IndexJoinSelection()
        join = Q.HashJoin(Q.Scan("orders"), Q.Scan("lineitem"),
                          col("o_orderkey"), col("l_orderkey"))
        rewritten = rule.apply(join, _context(tpch_catalog))
        assert isinstance(rewritten, Q.IndexJoin)
        assert (rewritten.index_table, rewritten.index_column) == \
            ("orders", "o_orderkey")
        assert rule.apply(rewritten, _context(tpch_catalog)) is None

    def test_non_pk_build_key_is_left_alone(self, tpch_catalog):
        rule = IndexJoinSelection()
        join = Q.HashJoin(Q.Scan("lineitem"), Q.Scan("orders"),
                          col("l_orderkey"), col("o_orderkey"))
        assert rule.apply(join, _context(tpch_catalog)) is None

    def test_left_outer_join_is_index_served(self, tpch_catalog):
        rule = IndexJoinSelection()
        join = Q.HashJoin(Q.Scan("customer"), Q.Scan("orders"),
                          col("c_custkey"), col("o_custkey"), kind="leftouter")
        rewritten = rule.apply(join, _context(tpch_catalog))
        assert isinstance(rewritten, Q.IndexJoin)
        assert rewritten.kind == "leftouter"
        assert (rewritten.index_table, rewritten.index_column) == \
            ("customer", "c_custkey")

    def test_left_outer_join_requires_a_bare_scan_build(self, tpch_catalog):
        rule = IndexJoinSelection()
        filtered = Q.HashJoin(
            Q.Select(Q.Scan("customer"), col("c_custkey") > 0),
            Q.Scan("orders"), col("c_custkey"), col("o_custkey"),
            kind="leftouter")
        assert rule.apply(filtered, _context(tpch_catalog)) is None

    def test_semi_join_requires_a_bare_scan_build(self, tpch_catalog):
        rule = IndexJoinSelection()
        bare = Q.HashJoin(Q.Scan("orders"), Q.Scan("lineitem"),
                          col("o_orderkey"), col("l_orderkey"), kind="leftsemi")
        assert isinstance(rule.apply(bare, _context(tpch_catalog)), Q.IndexJoin)
        filtered = Q.HashJoin(
            Q.Select(Q.Scan("orders"), col("o_orderdate") < date("1994-01-01")),
            Q.Scan("lineitem"), col("o_orderkey"), col("l_orderkey"),
            kind="leftsemi")
        assert rule.apply(filtered, _context(tpch_catalog)) is None

    def test_inner_join_requires_a_bare_scan_build(self, tpch_catalog):
        rule = IndexJoinSelection()
        # however small the probe, a filtered build stays a hash join
        for build in (Q.Select(Q.Scan("orders"), col("o_orderkey") > 0),
                      Q.PrunedScan(Q.Scan("orders"), col("o_orderkey") > 0)):
            filtered = Q.HashJoin(
                build, Q.Select(Q.Scan("lineitem"), col("l_orderkey") == 7),
                col("o_orderkey"), col("l_orderkey"))
            assert rule.apply(filtered, _context(tpch_catalog)) is None

    def test_unique_key_must_also_be_dense(self):
        catalog = Catalog()
        catalog.register(ColumnarTable(
            TableSchema("dim", [int_column("d_id")], primary_key=("d_id",)),
            {"d_id": [5, 700000, 31]}))
        catalog.register(ColumnarTable(
            TableSchema("fact", [int_column("f_did")]), {"f_did": [31, 5]}))
        join = Q.HashJoin(Q.Scan("dim"), Q.Scan("fact"), col("d_id"), col("f_did"))
        assert catalog.statistics.column("dim", "d_id").is_unique
        assert index_eligible_build(join, catalog) is None

    def test_eligibility_requires_loaded_statistics(self, tpch_catalog):
        join = Q.HashJoin(Q.Scan("orders"), Q.Scan("lineitem"),
                          col("o_orderkey"), col("l_orderkey"))
        assert index_eligible_build(join, tpch_catalog) == \
            ("orders", "o_orderkey")


class TestPlannerIntegration:
    def test_default_options_select_access_paths(self, tpch_catalog):
        optimized = Planner(tpch_catalog).optimize(build_query("Q12"))
        kinds = {type(node).__name__ for node in Q.walk(optimized)}
        assert "IndexJoin" in kinds
        assert "PrunedScan" in kinds

    def test_exact_order_keeps_access_paths(self, tpch_catalog):
        optimized = Planner(tpch_catalog, PlannerOptions.exact_order()) \
            .optimize(build_query("Q14"))
        kinds = {type(node).__name__ for node in Q.walk(optimized)}
        assert "IndexJoin" in kinds
        assert "PrunedScan" in kinds

    def test_no_access_paths_disables_them(self, tpch_catalog):
        optimized = Planner(tpch_catalog, PlannerOptions.no_access_paths()) \
            .optimize(build_query("Q12"))
        kinds = {type(node).__name__ for node in Q.walk(optimized)}
        assert "IndexJoin" not in kinds
        assert "PrunedScan" not in kinds

    def test_explain_reports_access_rules(self, tpch_catalog):
        report = Planner(tpch_catalog).explain(build_query("Q14"))
        assert "index-join" in report.applied
        assert "pruned-scan" in report.applied

    def test_build_side_swap_keeps_index_eligible_builds(self, tpch_catalog):
        # orders (15k rows) would normally be swapped behind the far smaller
        # filtered lineitem probe; with access paths on, the PK build stays
        # and becomes an IndexJoin
        plan = Q.Agg(
            Q.HashJoin(Q.Scan("orders"),
                       Q.Select(Q.Scan("lineitem"),
                                col("l_shipdate") >= date("1998-08-01")),
                       col("o_orderkey"), col("l_orderkey")),
            [], [Q.AggSpec("count", None, "n")])
        optimized = Planner(tpch_catalog).optimize(plan)
        joins = [node for node in Q.walk(optimized)
                 if isinstance(node, Q.HashJoin)]
        assert len(joins) == 1
        assert isinstance(joins[0], Q.IndexJoin)
        assert joins[0].index_table == "orders"
        # without access paths the swap is free to fire again
        swapped = Planner(tpch_catalog, PlannerOptions.no_access_paths()) \
            .optimize(plan)
        swapped_joins = [node for node in Q.walk(swapped)
                         if isinstance(node, Q.HashJoin)]
        assert not isinstance(swapped_joins[0], Q.IndexJoin)

    def test_optimized_plans_validate_and_fingerprint_distinctly(self, tpch_catalog):
        raw = build_query("Q12")
        optimized = Planner(tpch_catalog).optimize(build_query("Q12"))
        Q.validate(optimized, tpch_catalog)
        assert Q.plan_fingerprint(optimized) != Q.plan_fingerprint(raw)
        # the access ops fingerprint differently from their logical parents
        baseline = Planner(tpch_catalog, PlannerOptions.no_access_paths()) \
            .optimize(build_query("Q12"))
        assert Q.plan_fingerprint(optimized) != Q.plan_fingerprint(baseline)

    def test_pruning_preserves_access_nodes(self, tpch_catalog):
        from repro.planner import prune_plan
        optimized = Planner(tpch_catalog).optimize(build_query("Q12"))
        pruned = prune_plan(optimized, tpch_catalog)
        kinds = {type(node).__name__ for node in Q.walk(pruned)}
        assert "IndexJoin" in kinds
        assert "PrunedScan" in kinds


class TestValidation:
    def test_index_join_rejects_non_scan_build(self, tpch_catalog):
        join = Q.IndexJoin(
            Q.Project(Q.Scan("orders"), [("o_orderkey", col("o_orderkey"))]),
            Q.Scan("lineitem"), col("o_orderkey"), col("l_orderkey"),
            index_table="orders", index_column="o_orderkey")
        with pytest.raises(Q.PlanError):
            Q.validate(join, tpch_catalog)

    def test_index_join_rejects_mismatched_table(self, tpch_catalog):
        join = Q.IndexJoin(Q.Scan("orders"), Q.Scan("lineitem"),
                           col("o_orderkey"), col("l_orderkey"),
                           index_table="customer", index_column="c_custkey")
        with pytest.raises(Q.PlanError):
            Q.validate(join, tpch_catalog)

    def test_index_join_rejects_non_key_left_key(self, tpch_catalog):
        join = Q.IndexJoin(Q.Scan("orders"), Q.Scan("lineitem"),
                           col("o_custkey"), col("l_orderkey"),
                           index_table="orders", index_column="o_orderkey")
        with pytest.raises(Q.PlanError):
            Q.validate(join, tpch_catalog)

    def test_pruned_scan_rejects_bad_filters(self, tpch_catalog):
        with pytest.raises(Q.PlanError):
            Q.PrunedScan(Q.Scan("orders"), col("o_orderkey") > 5,
                         zone_filters=(("o_orderkey", "~~", 5),))
        with pytest.raises(Q.PlanError):
            Q.PrunedScan(Q.Select(Q.Scan("orders"), col("o_orderkey") > 5),
                         col("o_orderkey") > 5)
        plan = Q.PrunedScan(Q.Scan("orders"), col("o_orderkey") > 5,
                            zone_filters=(("nope", ">", 5),))
        with pytest.raises(Q.PlanError):
            Q.validate(plan, tpch_catalog)


class TestIndexJoinFallbacks:
    """Engines fall back to the plain hash join when the index is unusable."""

    def test_hand_built_left_outer_index_join_matches_hash_join(self, tpch_catalog):
        hash_plan = Q.HashJoin(Q.Scan("customer"), Q.Scan("orders"),
                               col("c_custkey"), col("o_custkey"),
                               kind="leftouter")
        index_plan = Q.IndexJoin(Q.Scan("customer"), Q.Scan("orders"),
                                 col("c_custkey"), col("o_custkey"),
                                 kind="leftouter", index_table="customer",
                                 index_column="c_custkey")
        engine = VolcanoEngine(tpch_catalog)
        assert engine.execute(index_plan) == engine.execute(hash_plan)
