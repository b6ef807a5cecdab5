"""Unit tests for the Volcano (iterator-model) interpreter."""
import pytest

from repro.dsl import qplan
from repro.dsl.expr import Col, col, is_null, lit
from repro.bench.harness import assert_rows_equivalent
from repro.engine.volcano import VolcanoEngine, execute
from repro.planner import Planner, sort_contract
from repro.storage.access import AccessLayer
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column, string_column
from repro.tpch.queries import QUERY_NAMES, build_query


@pytest.fixture()
def catalog():
    """The paper's running example: R(name, sid) joined with S(rid)."""
    cat = Catalog()
    r_schema = TableSchema("R", [int_column("r_id"), string_column("r_name"),
                                 int_column("r_sid")], primary_key=("r_id",))
    s_schema = TableSchema("S", [int_column("s_id"), int_column("s_rid"),
                                 float_column("s_val")], primary_key=("s_id",))
    cat.register(ColumnarTable(r_schema, {
        "r_id": [1, 2, 3, 4],
        "r_name": ["R1", "R2", "R1", "R3"],
        "r_sid": [10, 20, 30, 10],
    }))
    cat.register(ColumnarTable(s_schema, {
        "s_id": [100, 101, 102, 103, 104],
        "s_rid": [10, 30, 10, 50, 30],
        "s_val": [1.0, 2.0, 3.0, 4.0, 5.0],
    }))
    return cat


class TestBasicOperators:
    def test_scan_returns_all_rows(self, catalog):
        rows = execute(qplan.Scan("R"), catalog)
        assert len(rows) == 4
        assert rows[0] == {"r_id": 1, "r_name": "R1", "r_sid": 10}

    def test_scan_with_pruned_fields(self, catalog):
        rows = execute(qplan.Scan("R", fields=("r_name",)), catalog)
        assert rows[0] == {"r_name": "R1"}

    def test_select_filters(self, catalog):
        rows = execute(qplan.Select(qplan.Scan("R"), col("r_name") == "R1"), catalog)
        assert [r["r_id"] for r in rows] == [1, 3]

    def test_project_computes_and_renames(self, catalog):
        plan = qplan.Project(qplan.Scan("S"), [("doubled", col("s_val") * 2)])
        rows = execute(plan, catalog)
        assert [r["doubled"] for r in rows] == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_limit(self, catalog):
        rows = execute(qplan.Limit(qplan.Scan("S"), 2), catalog)
        assert len(rows) == 2

    def test_sort_multi_key(self, catalog):
        plan = qplan.Sort(qplan.Scan("R"),
                          [(col("r_name"), "asc"), (col("r_sid"), "desc")])
        rows = execute(plan, catalog)
        assert [(r["r_name"], r["r_sid"]) for r in rows] == \
            [("R1", 30), ("R1", 10), ("R2", 20), ("R3", 10)]


class TestJoins:
    def test_inner_hash_join_count(self, catalog):
        """The paper's example query: COUNT(*) of R1-rows joined with S."""
        plan = qplan.Agg(
            qplan.HashJoin(
                qplan.Select(qplan.Scan("R"), col("r_name") == "R1"),
                qplan.Scan("S"), col("r_sid"), col("s_rid")),
            [], [qplan.AggSpec("count", None, "n")])
        rows = execute(plan, catalog)
        # R1 rows have sid 10 and 30; S has rid 10 twice and 30 twice -> 4 matches
        assert rows == [{"n": 4}]

    def test_inner_join_combines_columns(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"))
        rows = execute(plan, catalog)
        assert all(set(r) == {"r_id", "r_name", "r_sid", "s_id", "s_rid", "s_val"}
                   for r in rows)
        assert len(rows) == 6

    def test_semi_join(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"),
                              kind="leftsemi")
        rows = execute(plan, catalog)
        assert sorted(r["r_id"] for r in rows) == [1, 3, 4]

    def test_anti_join(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"),
                              kind="leftanti")
        rows = execute(plan, catalog)
        assert [r["r_id"] for r in rows] == [2]

    def test_outer_join_pads_with_none(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"),
                              kind="leftouter")
        rows = execute(plan, catalog)
        assert len(rows) == 7  # 6 matches + 1 unmatched (r_id=2)
        unmatched = [r for r in rows if r["s_id"] is None]
        assert len(unmatched) == 1 and unmatched[0]["r_id"] == 2

    def test_outer_join_null_detection(self, catalog):
        plan = qplan.Select(
            qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"),
                           kind="leftouter"),
            is_null(col("s_id")))
        rows = execute(plan, catalog)
        assert [r["r_id"] for r in rows] == [2]

    def test_join_residual_condition(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"),
                              residual=col("s_val") > 2.0)
        rows = execute(plan, catalog)
        assert all(r["s_val"] > 2.0 for r in rows)
        assert len(rows) == 3

    def test_semi_join_with_sided_residual(self, catalog):
        """EXISTS (... AND inner.id <> outer.id) as used by TPC-H Q21."""
        plan = qplan.HashJoin(qplan.Scan("S"), qplan.Scan("S", fields=("s_rid", "s_id")),
                              col("s_rid"), Col("s_rid"),
                              kind="leftsemi",
                              residual=Col("s_id", "left") != Col("s_id", "right"))
        rows = execute(plan, catalog)
        # rows whose s_rid value appears in another row: rid 10 (x2) and 30 (x2)
        assert sorted(r["s_id"] for r in rows) == [100, 101, 102, 104]

    def test_theta_join_inequality(self, catalog):
        plan = qplan.HashJoin(
            qplan.Scan("R"), qplan.Scan("S"), lit(0), lit(0),
            residual=(Col("r_sid", "left") < Col("s_rid", "right")))
        rows = execute(plan, catalog)
        assert len(rows) == 10
        assert all(r["r_sid"] < r["s_rid"] for r in rows)

    def test_constant_key_cross_product(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S", fields=("s_val",)),
                              lit(0), lit(0))
        rows = execute(plan, catalog)
        assert len(rows) == 20

    def test_theta_semi_and_outer(self, catalog):
        greater = Col("r_sid", "left") > Col("s_rid", "right")
        semi = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), lit(0), lit(0),
                              kind="leftsemi", residual=greater)
        assert [r["r_id"] for r in execute(semi, catalog)] == [2, 3]
        anti = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), lit(0), lit(0),
                              kind="leftanti", residual=greater)
        assert [r["r_id"] for r in execute(anti, catalog)] == [1, 4]
        outer = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), lit(0), lit(0),
                               kind="leftouter", residual=greater)
        rows = execute(outer, catalog)
        assert len(rows) == 6
        assert [r["r_id"] for r in rows if r["s_id"] is None] == [1, 4]


class TestAggregation:
    def test_global_aggregate(self, catalog):
        plan = qplan.Agg(qplan.Scan("S"), [],
                         [qplan.AggSpec("sum", col("s_val"), "total"),
                          qplan.AggSpec("avg", col("s_val"), "mean"),
                          qplan.AggSpec("min", col("s_val"), "lo"),
                          qplan.AggSpec("max", col("s_val"), "hi"),
                          qplan.AggSpec("count", None, "n")])
        rows = execute(plan, catalog)
        assert rows == [{"total": 15.0, "mean": 3.0, "lo": 1.0, "hi": 5.0, "n": 5}]

    def test_group_by(self, catalog):
        plan = qplan.Agg(qplan.Scan("R"), [("r_name", col("r_name"))],
                         [qplan.AggSpec("count", None, "n"),
                          qplan.AggSpec("sum", col("r_sid"), "sids")])
        rows = {r["r_name"]: r for r in execute(plan, catalog)}
        assert rows["R1"] == {"r_name": "R1", "n": 2, "sids": 40}
        assert rows["R2"]["n"] == 1

    def test_count_distinct(self, catalog):
        plan = qplan.Agg(qplan.Scan("S"), [],
                         [qplan.AggSpec("count_distinct", col("s_rid"), "d")])
        assert execute(plan, catalog) == [{"d": 3}]

    def test_count_expression_skips_nulls(self, catalog):
        outer = qplan.HashJoin(qplan.Scan("R"), qplan.Scan("S"), col("r_sid"), col("s_rid"),
                               kind="leftouter")
        plan = qplan.Agg(outer, [], [qplan.AggSpec("count", col("s_id"), "matched"),
                                     qplan.AggSpec("count", None, "all_rows")])
        rows = execute(plan, catalog)
        assert rows == [{"matched": 6, "all_rows": 7}]

    def test_having_filters_groups(self, catalog):
        plan = qplan.Agg(qplan.Scan("R"), [("r_name", col("r_name"))],
                         [qplan.AggSpec("count", None, "n")],
                         having=col("n") > 1)
        rows = execute(plan, catalog)
        assert [r["r_name"] for r in rows] == ["R1"]

    def test_empty_input_group_by_yields_no_rows(self, catalog):
        plan = qplan.Agg(qplan.Select(qplan.Scan("R"), lit(False)),
                         [("r_name", col("r_name"))],
                         [qplan.AggSpec("count", None, "n")])
        assert execute(plan, catalog) == []

    def test_avg_of_empty_group_is_none(self, catalog):
        plan = qplan.Agg(qplan.Select(qplan.Scan("S"), lit(False)), [],
                         [qplan.AggSpec("avg", col("s_val"), "mean")])
        rows = execute(plan, catalog)
        # a global aggregate over an empty input still yields one row
        assert rows == [{"mean": None}]

    def test_unknown_operator_rejected(self, catalog):
        class Strange(qplan.Operator):
            def children(self):
                return ()

        with pytest.raises(Exception):
            VolcanoEngine(catalog).execute(Strange())


class TestReferenceIndependence:
    """The interpreter is the reference the other engines are graded against,
    so it reads nothing they share: with the access layer and shared-subplan
    detection replaced by raising stubs, every planned TPC-H query (access
    rules on, so ``PrunedScan`` and ``IndexJoin`` nodes included) returns the
    raw plan's rows."""

    def test_planned_queries_read_only_column_values(self, tpch_catalog, monkeypatch):
        engine = VolcanoEngine(tpch_catalog)
        planner = Planner(tpch_catalog)
        cases = [(name, planner.optimize(build_query(name)),
                  engine.execute(build_query(name))) for name in QUERY_NAMES]
        assert any(isinstance(node, (qplan.PrunedScan, qplan.IndexJoin))
                   for _, plan, _ in cases for node in qplan.walk(plan))

        def unavailable(*args, **kwargs):
            raise AssertionError("the reference interpreter read a shared structure")

        monkeypatch.setattr(AccessLayer, "for_catalog", unavailable)
        monkeypatch.setattr(Catalog, "access_layer", unavailable)
        monkeypatch.setattr(qplan, "shared_subplan_fingerprints", unavailable)
        for name, plan, expected in cases:
            assert_rows_equivalent(expected, engine.execute(plan),
                                   sort_keys=sort_contract(build_query(name)),
                                   context=name)
