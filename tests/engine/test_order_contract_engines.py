"""Cross-engine regression tests for the order-contract PR:

* null-aware sorting (NULLS LAST on asc, first on desc) in every engine,
* the bounded-heap ``TopK`` operator versus its ``Limit(Sort(...))`` origin,
* unified ``Limit`` semantics for ``count <= 0``,
* the one-row global fold over an empty input, and
* common-subtree sharing (the vectorized engine executes a shared subplan
  once per query; the reference interpreter runs it at each occurrence).
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan
from repro.dsl.expr import col, lit
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.engine import sortkeys
from repro.stack.configs import build_config
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column, string_column


def _nullable_catalog() -> Catalog:
    """A table whose sortable columns contain NULLs, plus an empty table."""
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("N", [int_column("n_id"), int_column("n_num"),
                          string_column("n_str"), float_column("n_val")],
                    primary_key=("n_id",)),
        {"n_id": [1, 2, 3, 4, 5],
         "n_num": [30, None, 10, 30, None],
         "n_str": ["c", "a", None, "b", "a"],
         "n_val": [1.5, 2.5, None, 0.5, 4.5]}))
    catalog.register(ColumnarTable(
        TableSchema("E", [int_column("e_id"), float_column("e_val")],
                    primary_key=("e_id",)),
        {"e_id": [], "e_val": []}))
    return catalog


@pytest.fixture()
def catalog() -> Catalog:
    return _nullable_catalog()


def expand(plan, catalog):
    """Compile ``plan`` with the one-lowering template-expander stack."""
    config = build_config("template-expander")
    return QueryCompiler(config.stack, config.flags).compile(plan, catalog)


def run_everywhere(plan, catalog):
    """Execute a plan on the two direct engines and the one-lowering
    template-expander stack; results must agree exactly."""
    reference = VolcanoEngine(catalog).execute(plan)
    assert VectorizedEngine(catalog).execute(plan) == reference
    assert expand(plan, catalog).run(catalog) == reference
    return reference


class TestNullOrdering:
    def test_asc_sort_puts_nulls_last(self, catalog):
        plan = qplan.Sort(qplan.Scan("N", ("n_id", "n_num")),
                          [(col("n_num"), "asc")])
        rows = run_everywhere(plan, catalog)
        assert [r["n_num"] for r in rows] == [10, 30, 30, None, None]
        # stable ties: nulls keep input order (ids 2 then 5)
        assert [r["n_id"] for r in rows] == [3, 1, 4, 2, 5]

    def test_desc_sort_puts_nulls_first(self, catalog):
        plan = qplan.Sort(qplan.Scan("N", ("n_id", "n_num")),
                          [(col("n_num"), "desc")])
        rows = run_everywhere(plan, catalog)
        assert [r["n_num"] for r in rows] == [None, None, 30, 30, 10]

    def test_multi_key_sort_with_null_strings(self, catalog):
        plan = qplan.Sort(qplan.Scan("N", ("n_id", "n_str", "n_num")),
                          [(col("n_str"), "asc"), (col("n_num"), "desc")])
        rows = run_everywhere(plan, catalog)
        assert [r["n_str"] for r in rows] == ["a", "a", "b", "c", None]
        # within the "a" tie, n_num desc with nulls first
        assert [r["n_id"] for r in rows][:2] == [2, 5]

    def test_compiled_stack_agrees_on_null_sort(self, catalog):
        plan = qplan.Sort(qplan.Scan("N", ("n_id", "n_num")),
                          [(col("n_num"), "asc")])
        reference = VolcanoEngine(catalog).execute(plan)
        config = build_config("dblab-3")
        compiled = QueryCompiler(config.stack, config.flags).compile(
            plan, catalog, "null_sort")
        assert compiled.run(catalog) == reference


class TestTopK:
    def sort_limit(self, keys, count):
        return qplan.Limit(qplan.Sort(qplan.Scan("N"), keys), count)

    def topk(self, keys, count):
        return qplan.TopK(qplan.Scan("N"), keys, count)

    @pytest.mark.parametrize("keys,count", [
        ([(col("n_num"), "asc")], 3),
        ([(col("n_num"), "desc")], 3),
        ([(col("n_str"), "desc")], 2),               # non-numeric DESC
        ([(col("n_str"), "asc"), (col("n_num"), "desc")], 4),
        ([(col("n_val"), "desc"), (col("n_id"), "asc")], 10),  # count > rows
    ])
    def test_topk_equals_sort_then_limit(self, catalog, keys, count):
        expected = run_everywhere(self.sort_limit(keys, count), catalog)
        assert run_everywhere(self.topk(keys, count), catalog) == expected

    def test_topk_count_zero_is_empty(self, catalog):
        assert run_everywhere(self.topk([(col("n_id"), "asc")], 0), catalog) == []

    def test_topk_is_stable_on_ties(self, catalog):
        rows = run_everywhere(self.topk([(col("n_num"), "desc")], 5), catalog)
        # n_num desc: nulls first in input order (2, 5), then 30s in input
        # order (1, 4), then 10
        assert [r["n_id"] for r in rows] == [2, 5, 1, 4, 3]

    def test_topk_through_compiled_stack(self, catalog):
        plan = self.topk([(col("n_val"), "desc")], 2)
        reference = VolcanoEngine(catalog).execute(plan)
        config = build_config("dblab-2")
        compiled = QueryCompiler(config.stack, config.flags).compile(
            plan, catalog, "topk")
        assert compiled.run(catalog) == reference

    def test_topk_helper_bounds(self):
        assert sortkeys.topk_indices([[3, 1, 2]], ["asc"], 2, 3) == [1, 2]
        assert sortkeys.topk_indices([[3, 1, 2]], ["desc"], 2, 3) == [0, 2]
        assert sortkeys.topk_indices([], [], 2, 3) == [0, 1]
        assert sortkeys.topk_indices([[1, 2]], ["asc"], 0, 2) == []


class TestLimitEdgeCases:
    @pytest.mark.parametrize("count", [0, 3, 99])
    def test_limit_agrees_across_engines(self, catalog, count):
        plan = qplan.Limit(qplan.Scan("N"), count)
        rows = run_everywhere(plan, catalog)
        assert len(rows) == min(count, 5)

    def test_validate_rejects_negative_limit(self, catalog):
        with pytest.raises(qplan.PlanError, match="negative row count"):
            qplan.validate(qplan.Limit(qplan.Scan("N"), -1), catalog)
        with pytest.raises(qplan.PlanError, match="negative row count"):
            qplan.validate(qplan.TopK(qplan.Scan("N"),
                                      [(col("n_id"), "asc")], -3), catalog)

    def test_negative_limit_yields_nothing_on_direct_engines(self, catalog):
        # The direct engines do not validate; they must still agree that a
        # non-positive count keeps no rows.  The query compiler validates up
        # front and rejects the plan outright, whatever the configuration.
        plan = qplan.Limit(qplan.Scan("N"), -2)
        assert VolcanoEngine(catalog).execute(plan) == []
        assert VectorizedEngine(catalog).execute(plan) == []
        for bad in (plan, qplan.TopK(qplan.Scan("N"), [(col("n_id"), "asc")], -3)):
            with pytest.raises(qplan.PlanError, match="negative row count"):
                expand(bad, catalog)


class TestEmptyGlobalFold:
    AGGS = [qplan.AggSpec("count", None, "n"),
            qplan.AggSpec("count", col("e_val"), "n_vals"),
            qplan.AggSpec("sum", col("e_val"), "total"),
            qplan.AggSpec("avg", col("e_val"), "mean"),
            qplan.AggSpec("min", col("e_val"), "low"),
            qplan.AggSpec("max", col("e_val"), "high"),
            qplan.AggSpec("count_distinct", col("e_val"), "kinds")]

    EXPECTED = [{"n": 0, "n_vals": 0, "total": 0, "mean": None,
                 "low": None, "high": None, "kinds": 0}]

    def test_global_fold_over_empty_table(self, catalog):
        plan = qplan.Agg(qplan.Scan("E"), [], self.AGGS)
        assert run_everywhere(plan, catalog) == self.EXPECTED

    def test_global_fold_over_filtered_out_input(self, catalog):
        plan = qplan.Agg(qplan.Select(qplan.Scan("N"), lit(False)),
                         [], [qplan.AggSpec("sum", col("n_val"), "total"),
                              qplan.AggSpec("count", None, "n")])
        assert run_everywhere(plan, catalog) == [{"total": 0, "n": 0}]

    @pytest.mark.parametrize("config_name", ["dblab-2", "dblab-3", "dblab-5"])
    def test_compiled_stacks_emit_the_neutral_row(self, catalog, config_name):
        plan = qplan.Agg(qplan.Scan("E"), [], self.AGGS)
        config = build_config(config_name)
        compiled = QueryCompiler(config.stack, config.flags).compile(
            plan, catalog, f"empty_fold_{config_name}")
        assert compiled.run(catalog) == self.EXPECTED

    def test_grouped_aggregate_over_empty_input_stays_empty(self, catalog):
        plan = qplan.Agg(qplan.Scan("E"), [("k", col("e_id"))],
                         [qplan.AggSpec("count", None, "n")])
        assert run_everywhere(plan, catalog) == []


def _shared_subplan_query():
    """A Q15-shaped plan: the aggregation subtree feeds both its own max()
    fold and the final join, so it must be evaluated once."""
    revenue = qplan.Agg(qplan.Scan("N", ("n_id", "n_num", "n_val")),
                        [("num", col("n_num"))],
                        [qplan.AggSpec("sum", col("n_val"), "total")])
    top = qplan.Agg(revenue, [], [qplan.AggSpec("max", col("total"), "best")])
    joined = qplan.HashJoin(revenue, top, lit(0), lit(0))
    return qplan.Select(joined, col("total") == col("best"))


class TestCommonSubtreeSharing:
    def test_detection_finds_the_shared_aggregate(self):
        plan = _shared_subplan_query()
        shared = qplan.shared_subplan_fingerprints(plan)
        assert shared  # the revenue subtree occurs twice
        assert all("Agg" in key or "Select" in key for key in shared.values())

    def test_detection_ignores_plain_plans_and_scans(self):
        chain = qplan.HashJoin(qplan.Scan("N"), qplan.Scan("N"),
                               col("n_id"), col("n_id"), kind="leftsemi")
        assert qplan.shared_subplan_fingerprints(chain) == {}

    def test_vectorized_executes_shared_subplan_once(self, catalog):
        plan = _shared_subplan_query()
        engine = VectorizedEngine(catalog)
        scans = []
        original = engine._dispatch

        def spy(node):
            if isinstance(node, qplan.Scan):
                scans.append(node.table)
            return original(node)

        engine._dispatch = spy
        rows = engine.execute(plan)
        assert scans.count("N") == 1
        assert rows == VolcanoEngine(catalog).execute(plan)

    def test_results_identical_with_and_without_sharing(self, catalog):
        plan = _shared_subplan_query()
        engine = VectorizedEngine(catalog)
        shared_rows = engine.execute(plan)
        # no cache outside execute(): this batch is computed unshared
        columns, length = engine._materialize(plan)
        unshared_rows = [{name: values[i] for name, values in columns.items()}
                         for i in range(length)]
        assert shared_rows == unshared_rows
