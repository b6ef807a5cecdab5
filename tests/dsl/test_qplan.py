"""Unit tests for QPlan operator construction and analysis."""
import pytest

from repro.dsl import qplan
from repro.dsl.expr import Col, col
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column, string_column


@pytest.fixture()
def catalog():
    cat = Catalog()
    r_schema = TableSchema("r", [int_column("r_id"), string_column("r_name"),
                                 int_column("r_sid")], primary_key=("r_id",))
    s_schema = TableSchema("s", [int_column("s_id"), float_column("s_val")],
                           primary_key=("s_id",))
    cat.register(ColumnarTable(r_schema, {"r_id": [1, 2], "r_name": ["a", "b"],
                                          "r_sid": [10, 20]}))
    cat.register(ColumnarTable(s_schema, {"s_id": [10, 20], "s_val": [1.5, 2.5]}))
    return cat


class TestConstruction:
    def test_invalid_join_kind_rejected(self):
        with pytest.raises(qplan.PlanError):
            qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"), col("r_sid"), col("s_id"),
                           kind="full")

    def test_invalid_agg_kind_rejected(self):
        with pytest.raises(qplan.PlanError):
            qplan.AggSpec("median", col("x"), "m")

    def test_agg_requires_expression_except_count(self):
        qplan.AggSpec("count", None, "n")
        with pytest.raises(qplan.PlanError):
            qplan.AggSpec("sum", None, "s")

    def test_duplicate_projection_names_rejected(self):
        with pytest.raises(qplan.PlanError):
            qplan.Project(qplan.Scan("r"), [("x", col("r_id")), ("x", col("r_sid"))])

    def test_duplicate_agg_output_names_rejected(self):
        with pytest.raises(qplan.PlanError):
            qplan.Agg(qplan.Scan("r"), [("k", col("r_id"))],
                      [qplan.AggSpec("count", None, "k")])

    def test_invalid_sort_order_rejected(self):
        with pytest.raises(qplan.PlanError):
            qplan.Sort(qplan.Scan("r"), [(col("r_id"), "sideways")])

    def test_tree_repr_shows_structure(self):
        plan = qplan.Limit(qplan.Select(qplan.Scan("r"), col("r_id") > 1), 5)
        text = repr(plan)
        assert "Limit(5)" in text and "Scan(r" in text and "Select" in text

    def test_with_children_rebuilds_nodes(self):
        scan = qplan.Scan("r")
        select = qplan.Select(scan, col("r_id") > 1)
        other = qplan.Scan("s")
        rebuilt = select.with_children([other])
        assert rebuilt.child is other
        assert rebuilt.predicate is select.predicate


class TestAnalysis:
    def test_output_fields_scan_defaults_to_all_columns(self, catalog):
        assert qplan.output_fields(qplan.Scan("r"), catalog) == ["r_id", "r_name", "r_sid"]

    def test_output_fields_scan_with_pruned_fields(self, catalog):
        assert qplan.output_fields(qplan.Scan("r", fields=("r_id",)), catalog) == ["r_id"]

    def test_output_fields_project_and_agg(self, catalog):
        project = qplan.Project(qplan.Scan("r"), [("key", col("r_id"))])
        assert qplan.output_fields(project, catalog) == ["key"]
        agg = qplan.Agg(qplan.Scan("r"), [("k", col("r_name"))],
                        [qplan.AggSpec("count", None, "n")])
        assert qplan.output_fields(agg, catalog) == ["k", "n"]

    def test_output_fields_joins(self, catalog):
        join = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"), col("r_sid"), col("s_id"))
        assert qplan.output_fields(join, catalog) == ["r_id", "r_name", "r_sid", "s_id", "s_val"]
        semi = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"), col("r_sid"), col("s_id"),
                              kind="leftsemi")
        assert qplan.output_fields(semi, catalog) == ["r_id", "r_name", "r_sid"]

    def test_duplicate_column_join_rejected(self, catalog):
        join = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("r"), col("r_id"), col("r_id"))
        with pytest.raises(qplan.PlanError):
            qplan.output_fields(join, catalog)

    def test_validate_accepts_well_formed_plan(self, catalog):
        plan = qplan.Agg(
            qplan.Select(
                qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"), col("r_sid"), col("s_id")),
                col("s_val") > 1.0),
            [("r_name", col("r_name"))],
            [qplan.AggSpec("sum", col("s_val"), "total")])
        qplan.validate(plan, catalog)

    def test_validate_rejects_unknown_column_in_predicate(self, catalog):
        plan = qplan.Select(qplan.Scan("r"), col("bogus") > 1)
        with pytest.raises(qplan.PlanError):
            qplan.validate(plan, catalog)

    def test_validate_rejects_unknown_scan_field(self, catalog):
        plan = qplan.Scan("r", fields=("nope",))
        with pytest.raises(qplan.PlanError):
            qplan.validate(plan, catalog)

    def test_validate_rejects_column_lost_by_projection(self, catalog):
        plan = qplan.Select(qplan.Project(qplan.Scan("r"), [("key", col("r_id"))]),
                            col("r_name") == "a")
        with pytest.raises(qplan.PlanError):
            qplan.validate(plan, catalog)

    def test_validate_checks_hash_join_residual(self, catalog):
        """Regression: residuals used to be skipped by validation entirely."""
        good = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"),
                              col("r_sid"), col("s_id"),
                              residual=col("s_val") > col("r_id"))
        qplan.validate(good, catalog)
        bad = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"),
                             col("r_sid"), col("s_id"),
                             residual=col("bogus") > 1)
        with pytest.raises(qplan.PlanError, match="bogus"):
            qplan.validate(bad, catalog)

    def test_validate_checks_residual_sides(self, catalog):
        """A sided residual reference must exist on the *referenced* side."""
        bad = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"),
                             col("r_sid"), col("s_id"),
                             residual=Col("s_val", "left") > 1)
        with pytest.raises(qplan.PlanError, match="s_val"):
            qplan.validate(bad, catalog)
        good = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"),
                              col("r_sid"), col("s_id"),
                              residual=Col("s_val", "right") > 1)
        qplan.validate(good, catalog)

    def test_validate_checks_semi_join_residual_against_both_inputs(self, catalog):
        """Semi/anti joins output only left fields, but their residual is
        evaluated on candidate pairs and may reference the right input."""
        good = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"),
                              col("r_sid"), col("s_id"), kind="leftsemi",
                              residual=Col("s_val", "right") > Col("r_id", "left"))
        qplan.validate(good, catalog)
        bad = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("s"),
                             col("r_sid"), col("s_id"), kind="leftanti",
                             residual=col("missing") == 1)
        with pytest.raises(qplan.PlanError, match="missing"):
            qplan.validate(bad, catalog)

    def test_output_fields_memo_reused_within_one_pass(self, catalog):
        scan = qplan.Scan("r")
        plan = qplan.Sort(qplan.Select(scan, col("r_id") > 1), [(col("r_id"), "asc")])
        memo = {}
        fields = qplan.output_fields(plan, catalog, memo)
        assert fields == ["r_id", "r_name", "r_sid"]
        # every node of the chain was cached, including the shared scan
        assert memo[id(scan)] == fields
        assert qplan.output_fields(plan, catalog, memo) is memo[id(plan)]


class TestValidationErrorPaths:
    """Field-resolution hardening: schema problems surface as PlanError with
    the offending name, never as storage-layer SchemaError escaping through
    plan analysis."""

    def test_unknown_table_is_a_plan_error(self, catalog):
        with pytest.raises(qplan.PlanError, match="unknown table 'ghost'"):
            qplan.validate(qplan.Scan("ghost"), catalog)

    def test_unknown_table_with_explicit_fields_is_a_plan_error(self, catalog):
        """Scans with a field list used to skip table resolution entirely."""
        with pytest.raises(qplan.PlanError, match="unknown table"):
            qplan.validate(qplan.Scan("ghost", fields=("r_id",)), catalog)

    def test_unknown_table_nested_in_join_is_a_plan_error(self, catalog):
        plan = qplan.HashJoin(qplan.Scan("r"), qplan.Scan("ghost"),
                              col("r_sid"), col("s_id"))
        with pytest.raises(qplan.PlanError, match="ghost"):
            qplan.validate(plan, catalog)

    def test_output_fields_unknown_table_is_a_plan_error(self, catalog):
        with pytest.raises(qplan.PlanError, match="unknown table"):
            qplan.output_fields(qplan.Scan("ghost"), catalog)

    def test_index_join_unknown_table_is_a_plan_error(self, catalog):
        plan = qplan.IndexJoin(qplan.Scan("ghost"), qplan.Scan("s"),
                               col("g_id"), col("s_id"),
                               index_table="ghost", index_column="g_id")
        with pytest.raises(qplan.PlanError):
            qplan.validate(plan, catalog)

    def test_index_join_unknown_column_is_a_plan_error(self, catalog):
        plan = qplan.IndexJoin(qplan.Scan("r"), qplan.Scan("s"),
                               col("nope"), col("s_id"),
                               index_table="r", index_column="nope")
        with pytest.raises(qplan.PlanError, match="nope"):
            qplan.validate(plan, catalog)

    def test_error_names_the_unknown_predicate_column(self, catalog):
        plan = qplan.Select(qplan.Scan("r"), col("bogus") > 1)
        with pytest.raises(qplan.PlanError, match="bogus"):
            qplan.validate(plan, catalog)
