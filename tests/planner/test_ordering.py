"""Unit tests for the order-contract framework: sort-contract inference,
top-k fusion, and the sort-key-aware multiset comparator."""
import pytest

from repro.bench.harness import (assert_rows_equivalent, canonical_value,
                                 rows_equivalent)
from repro.dsl import qplan as Q
from repro.dsl.expr import Col, col
from repro.dsl.expr_compile import expr_fingerprint
from repro.engine.volcano import execute as volcano_execute
from repro.planner import (Planner, PlannerContext, PlannerOptions, TopKFusion,
                           apply_rules_fixpoint, sort_contract)


def contract_keys(plan):
    """``[(fingerprint, order)]`` of a contract, for easy assertions."""
    contract = sort_contract(plan)
    if contract is None:
        return None
    return [(expr_fingerprint(expr), order) for expr, order in contract]


class TestSortContract:
    SORT = Q.Sort(Q.Scan("R"), [(col("r_name"), "asc"), (col("r_id"), "desc")])

    def test_sort_establishes_its_keys(self):
        assert contract_keys(self.SORT) == [
            (expr_fingerprint(col("r_name")), "asc"),
            (expr_fingerprint(col("r_id")), "desc")]

    def test_topk_establishes_its_keys(self):
        topk = Q.TopK(Q.Scan("R"), [(col("r_id"), "asc")], 5)
        assert contract_keys(topk) == [(expr_fingerprint(col("r_id")), "asc")]

    def test_limit_and_select_preserve_the_contract(self):
        assert contract_keys(Q.Limit(self.SORT, 3)) == contract_keys(self.SORT)
        filtered = Q.Select(Q.Limit(self.SORT, 3), col("r_id") > 1)
        assert contract_keys(filtered) == contract_keys(self.SORT)

    def test_identity_projection_keeps_keys(self):
        projected = Q.Project(self.SORT, [("r_name", col("r_name")),
                                          ("r_id", col("r_id"))])
        assert contract_keys(projected) == contract_keys(self.SORT)

    def test_renaming_projection_remaps_keys(self):
        projected = Q.Project(self.SORT, [("label", col("r_name")),
                                          ("r_id", col("r_id"))])
        assert contract_keys(projected) == [
            (expr_fingerprint(col("label")), "asc"),
            (expr_fingerprint(col("r_id")), "desc")]

    def test_dropped_key_truncates_to_a_prefix(self):
        projected = Q.Project(self.SORT, [("r_name", col("r_name"))])
        assert contract_keys(projected) == [
            (expr_fingerprint(col("r_name")), "asc")]

    def test_dropped_leading_key_voids_the_contract(self):
        projected = Q.Project(self.SORT, [("r_id", col("r_id"))])
        assert sort_contract(projected) is None

    def test_order_destroying_operators_have_no_contract(self):
        join = Q.HashJoin(self.SORT, Q.Scan("S"), col("r_sid"), col("s_rid"))
        assert sort_contract(join) is None
        agg = Q.Agg(self.SORT, [("name", col("r_name"))],
                    [Q.AggSpec("count", None, "n")])
        assert sort_contract(agg) is None
        assert sort_contract(Q.Scan("R")) is None


def fused(plan, catalog):
    """``plan`` rewritten by top-k fusion alone, to its fixed point."""
    return apply_rules_fixpoint(plan, [TopKFusion()],
                                PlannerContext(catalog=catalog))[0]


class TestTopKFusionRule:
    def plan(self, count, keys=((col("r_id"), "desc"),)):
        return Q.Limit(Q.Sort(Q.Scan("R"), list(keys)), count)

    def test_limit_over_sort_fuses(self, tiny_catalog):
        optimized = fused(self.plan(3), tiny_catalog)
        assert isinstance(optimized, Q.TopK)
        assert optimized.count == 3
        assert volcano_execute(optimized, tiny_catalog) == \
            volcano_execute(self.plan(3), tiny_catalog)

    def test_limit_over_topk_tightens(self, tiny_catalog):
        plan = Q.Limit(Q.TopK(Q.Scan("R"), [(col("r_id"), "asc")], 4), 2)
        optimized = fused(plan, tiny_catalog)
        assert isinstance(optimized, Q.TopK) and optimized.count == 2

    def test_looser_limit_over_topk_is_dropped(self, tiny_catalog):
        plan = Q.Limit(Q.TopK(Q.Scan("R"), [(col("r_id"), "asc")], 2), 10)
        optimized = fused(plan, tiny_catalog)
        assert isinstance(optimized, Q.TopK) and optimized.count == 2

    def test_stacked_limits_collapse(self, tiny_catalog):
        plan = Q.Limit(Q.Limit(Q.Scan("R"), 4), 2)
        optimized = fused(plan, tiny_catalog)
        assert isinstance(optimized, Q.Limit) and optimized.count == 2
        assert isinstance(optimized.child, Q.Scan)

    def test_fused_fingerprint_is_stable(self, tiny_catalog):
        planner = Planner(tiny_catalog, PlannerOptions.exact_order())
        once = planner.optimize(self.plan(3))
        twice = planner.optimize(once)
        assert isinstance(once, Q.TopK)
        assert Q.plan_fingerprint(once) == Q.plan_fingerprint(twice)

    @pytest.mark.parametrize("preset", ["all_rules", "exact_order", "no_access_paths"])
    def test_the_planner_fuses_under_every_preset(self, tiny_catalog, preset):
        """Fusion is part of the always-on sweep; the fused plan keeps the
        sort's order contract and its rows."""
        plan = self.plan(3)
        optimized = Planner(tiny_catalog, getattr(PlannerOptions, preset)()).optimize(plan)
        assert isinstance(optimized, Q.TopK) and optimized.count == 3
        assert contract_keys(optimized) == contract_keys(plan)
        assert volcano_execute(optimized, tiny_catalog) == \
            volcano_execute(plan, tiny_catalog)


class TestRowsEquivalent:
    ROWS = [{"k": 2, "v": 1.0}, {"k": 1, "v": 2.0}, {"k": 1, "v": 3.0}]

    def test_multiset_comparison_ignores_order(self):
        assert rows_equivalent(self.ROWS, list(reversed(self.ROWS)))

    def test_multiset_comparison_counts_duplicates(self):
        assert not rows_equivalent([{"k": 1}, {"k": 1}, {"k": 2}],
                                   [{"k": 1}, {"k": 2}, {"k": 2}])

    def test_length_mismatch_fails(self):
        assert not rows_equivalent(self.ROWS, self.ROWS[:2])

    def test_float_accumulation_tolerance(self):
        total = sum([0.1] * 10)           # 0.9999999999999999
        assert total != 1.0
        assert rows_equivalent([{"v": total}], [{"v": 1.0}])
        assert not rows_equivalent([{"v": 1.0}], [{"v": 1.001}])
        assert canonical_value(total) == canonical_value(1.0)

    def test_tolerance_survives_rounding_bucket_boundaries(self):
        # These two values differ by ~2e-14 but canonicalise to different
        # 9-significant-digit strings; the comparator must still treat them
        # as equal (rounding is bucketing, not a tolerance).
        left, right = 0.12345678949999, 0.12345678950001
        assert canonical_value(left) != canonical_value(right)
        assert rows_equivalent([{"v": left}], [{"v": right}])
        assert rows_equivalent([{"k": 1, "v": left}], [{"k": 1, "v": right}],
                               sort_keys=((Col("v"), "desc"),))

    def test_sort_key_aware_allows_permuted_ties_only(self):
        keys = ((Col("k"), "desc"),)
        swapped_tie = [self.ROWS[0], self.ROWS[2], self.ROWS[1]]
        assert rows_equivalent(self.ROWS, swapped_tie, sort_keys=keys)
        out_of_order = [self.ROWS[1], self.ROWS[0], self.ROWS[2]]
        assert not rows_equivalent(self.ROWS, out_of_order, sort_keys=keys)

    def test_assert_helper_reports_context(self):
        with pytest.raises(AssertionError, match="Qx: row count mismatch"):
            assert_rows_equivalent(self.ROWS, self.ROWS[:1], context="Qx")
        with pytest.raises(AssertionError, match="order contract"):
            assert_rows_equivalent(self.ROWS,
                                   [self.ROWS[1], self.ROWS[0], self.ROWS[2]],
                                   sort_keys=((Col("k"), "desc"),))
