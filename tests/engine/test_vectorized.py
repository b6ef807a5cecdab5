"""Tests for the vectorized columnar engine.

The headline guarantee is row-identical output (values *and* order) with the
Volcano reference interpreter on every TPC-H query; the unit tests cover the
selection-vector semantics and the one-batch-per-operator contract.
"""
import pytest

from repro.dsl import qplan
from repro.dsl.expr import Col, col, is_null, lit
from repro.engine.vectorized import ColumnBatch, VectorizedEngine
from repro.engine.volcano import execute as volcano_execute
from repro.robustness.governor import QueryBudget, governed
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column, string_column
from repro.tpch.queries import QUERY_NAMES, build_query


# ---------------------------------------------------------------------------
# TPC-H parity: the engine's correctness contract
# ---------------------------------------------------------------------------
class TestTpchParity:
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_row_identical_to_volcano(self, tpch_catalog, query_name):
        plan = build_query(query_name)
        reference = volcano_execute(plan, tpch_catalog)
        assert VectorizedEngine(tpch_catalog).execute(plan) == reference


# ---------------------------------------------------------------------------
# Selection-vector semantics
# ---------------------------------------------------------------------------
def _catalog_with(rows):
    schema = TableSchema("T", [int_column("t_id"), int_column("t_key"),
                               float_column("t_val"), string_column("t_tag")])
    catalog = Catalog()
    catalog.register(ColumnarTable(schema, {
        name: [row[name] for row in rows] for name in schema.column_names()}))
    return catalog


@pytest.fixture()
def small_catalog():
    return _catalog_with([
        {"t_id": 1, "t_key": 10, "t_val": 1.0, "t_tag": "a"},
        {"t_id": 2, "t_key": 20, "t_val": 2.0, "t_tag": "b"},
        {"t_id": 3, "t_key": 10, "t_val": 3.0, "t_tag": "a"},
        {"t_id": 4, "t_key": None, "t_val": 4.0, "t_tag": "c"},
        {"t_id": 5, "t_key": 30, "t_val": 5.0, "t_tag": "b"},
    ])


class TestColumnBatch:
    def test_no_selection_means_all_rows(self):
        batch = ColumnBatch({"x": [1, 2, 3]}, None, 3)
        assert list(batch.indices()) == [0, 1, 2]
        assert batch.num_selected == 3

    def test_selection_vector_restricts_and_orders(self):
        batch = ColumnBatch({"x": [1, 2, 3]}, [2, 0], 3)
        assert list(batch.indices()) == [2, 0]
        assert batch.num_selected == 2

    def test_has_slots(self):
        batch = ColumnBatch({}, None, 0)
        assert not hasattr(batch, "__dict__")


class TestSelectionVectors:
    def test_scan_is_zero_copy(self, small_catalog):
        engine = VectorizedEngine(small_catalog)
        batch = engine.execute_batch(qplan.Scan("T"))
        assert batch.sel is None
        assert batch.columns["t_id"] is small_catalog.table("T").column("t_id")

    def test_select_only_shrinks_the_selection(self, small_catalog):
        engine = VectorizedEngine(small_catalog)
        plan = qplan.Select(qplan.Scan("T"), col("t_val") > 2.0)
        batch = engine.execute_batch(plan)
        assert batch.sel == [2, 3, 4]
        # the data itself is untouched storage
        assert batch.columns["t_val"] is small_catalog.table("T").column("t_val")

    def test_all_filtered_batch_flows_through(self, small_catalog):
        engine = VectorizedEngine(small_catalog)
        plan = qplan.Agg(qplan.Select(qplan.Scan("T"), lit(False)),
                         [("t_tag", col("t_tag"))],
                         [qplan.AggSpec("count", None, "n")])
        assert engine.execute(plan) == []

    def test_empty_table(self):
        catalog = _catalog_with([])
        plan = qplan.Sort(qplan.Select(qplan.Scan("T"), col("t_val") > 0),
                          [(col("t_id"), "asc")])
        assert VectorizedEngine(catalog).execute(plan) == []

    def test_limit_cuts_its_one_batch(self, small_catalog):
        engine = VectorizedEngine(small_catalog)
        plan = qplan.Limit(qplan.Select(qplan.Scan("T"), col("t_val") > 1.0), 3)
        batch = engine.execute_batch(plan)
        assert list(batch.indices()) == [1, 2, 3]
        assert batch.columns["t_id"] is small_catalog.table("T").column("t_id")
        assert [r["t_id"] for r in engine.execute(plan)] == [2, 3, 4]

    def test_limit_above_the_input_returns_it(self, small_catalog):
        engine = VectorizedEngine(small_catalog)
        plan = qplan.Limit(qplan.Scan("T"), 9)
        assert engine.execute_batch(plan).num_selected == 5
        assert [r["t_id"] for r in engine.execute(plan)] == [1, 2, 3, 4, 5]

    def test_limit_zero(self, small_catalog):
        assert VectorizedEngine(small_catalog).execute(
            qplan.Limit(qplan.Scan("T"), 0)) == []


class TestNullKeys:
    """Null join/group keys follow the interpreter's dictionary semantics."""

    def test_join_on_null_key_matches_volcano(self, small_catalog):
        schema = TableSchema("U", [int_column("u_key"), string_column("u_name")])
        small_catalog.register(ColumnarTable(schema, {
            "u_key": [10, None, 99], "u_name": ["ten", "nil", "miss"]}))
        plan = qplan.HashJoin(qplan.Scan("T"), qplan.Scan("U"),
                              col("t_key"), col("u_key"))
        assert VectorizedEngine(small_catalog).execute(plan) == \
            volcano_execute(plan, small_catalog)

    def test_group_by_null_key_matches_volcano(self, small_catalog):
        plan = qplan.Agg(qplan.Scan("T"), [("t_key", col("t_key"))],
                         [qplan.AggSpec("sum", col("t_val"), "total"),
                          qplan.AggSpec("count_distinct", col("t_tag"), "tags")])
        assert VectorizedEngine(small_catalog).execute(plan) == \
            volcano_execute(plan, small_catalog)

    def test_outer_join_null_padding_and_is_null(self, small_catalog):
        schema = TableSchema("V", [int_column("v_key"), float_column("v_val")])
        small_catalog.register(ColumnarTable(schema, {"v_key": [10], "v_val": [0.5]}))
        joined = qplan.HashJoin(qplan.Scan("T"), qplan.Scan("V"),
                                col("t_key"), col("v_key"), kind="leftouter")
        plan = qplan.Select(joined, is_null(col("v_key")))
        assert VectorizedEngine(small_catalog).execute(plan) == \
            volcano_execute(plan, small_catalog)


class TestOperatorParityOnSmallData:
    """Exact-order parity on the operator kinds the TPC-H plans exercise."""

    CASES = {
        "semi": lambda: qplan.HashJoin(
            qplan.Scan("T"), qplan.Scan("T", fields=("t_key", "t_id")),
            col("t_key"), Col("t_key"), kind="leftsemi",
            residual=Col("t_id", "left") != Col("t_id", "right")),
        "anti": lambda: qplan.HashJoin(
            qplan.Scan("T"), qplan.Scan("T", fields=("t_key", "t_id")),
            col("t_key"), Col("t_key"), kind="leftanti",
            residual=Col("t_id", "left") != Col("t_id", "right")),
        "theta": lambda: qplan.HashJoin(
            qplan.Scan("T", fields=("t_id", "t_key")),
            qplan.Scan("T", fields=("t_val",)), lit(0), lit(0),
            residual=(Col("t_id", "left") < Col("t_val", "right"))),
        "sort-multi-key": lambda: qplan.Sort(
            qplan.Scan("T"), [(col("t_tag"), "asc"), (col("t_val"), "desc")]),
        "having": lambda: qplan.Agg(
            qplan.Scan("T"), [("t_tag", col("t_tag"))],
            [qplan.AggSpec("count", None, "n"),
             qplan.AggSpec("avg", col("t_val"), "mean"),
             qplan.AggSpec("min", col("t_val"), "lo"),
             qplan.AggSpec("max", col("t_val"), "hi")],
            having=col("n") > 1),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_volcano(self, small_catalog, name):
        plan = self.CASES[name]()
        assert VectorizedEngine(small_catalog).execute(plan) == \
            volcano_execute(plan, small_catalog)


def _keyed_catalog():
    """``T`` keyed by a dense ``t_id`` (an index join's build) and a
    probe table ``U`` whose keys match some ``T`` rows and miss others."""
    catalog = _catalog_with([
        {"t_id": 1, "t_key": 10, "t_val": 1.0, "t_tag": "a"},
        {"t_id": 2, "t_key": 20, "t_val": 2.0, "t_tag": "b"},
        {"t_id": 3, "t_key": 10, "t_val": 3.0, "t_tag": "a"},
        {"t_id": 4, "t_key": None, "t_val": 4.0, "t_tag": "c"},
        {"t_id": 5, "t_key": 30, "t_val": 5.0, "t_tag": "b"},
    ])
    table = catalog.table("T")
    catalog.register(ColumnarTable(TableSchema("T", table.schema.columns,
                                               primary_key=("t_id",)),
                                   {name: table.column(name)
                                    for name in table.schema.column_names()}))
    schema = TableSchema("U", [int_column("u_key"), int_column("u_tid"),
                               string_column("u_name")])
    catalog.register(ColumnarTable(schema, {
        "u_key": [20, 99, 10], "u_tid": [2, 9, 1], "u_name": ["x", "y", "z"]}))
    return catalog


def _join(kind):
    return qplan.HashJoin(qplan.Scan("T"), qplan.Scan("U"), col("t_key"),
                          col("u_key"), kind=kind)


class TestOneBatchPerOperator:
    """Each operator runs once over its input's columns and returns one
    :class:`ColumnBatch`; a governor is charged once per executed operator."""

    PLANS = {
        "scan": lambda: qplan.Scan("T"),
        "pruned-scan": lambda: qplan.PrunedScan(
            qplan.Scan("T"), col("t_id") > 2, (("t_id", ">", 2),)),
        "select-over-scan": lambda: qplan.Select(qplan.Scan("T"), col("t_tag") == "a"),
        "select": lambda: qplan.Select(
            qplan.Project(qplan.Scan("T"), [("v", col("t_val") * 2)]), col("v") > 4),
        "project": lambda: qplan.Project(qplan.Scan("T"), [("id", col("t_id"))]),
        "agg-grouped": lambda: qplan.Agg(
            qplan.Scan("T"), [("t_tag", col("t_tag"))],
            [qplan.AggSpec("sum", col("t_val"), "total")]),
        "agg-global-empty": lambda: qplan.Agg(
            qplan.Select(qplan.Scan("T"), lit(False)), [],
            [qplan.AggSpec("count", None, "n"), qplan.AggSpec("avg", col("t_val"), "a")]),
        "sort": lambda: qplan.Sort(qplan.Scan("T"), [(col("t_val"), "desc")]),
        "topk": lambda: qplan.TopK(qplan.Scan("T"), [(col("t_val"), "desc")], 2),
        "limit": lambda: qplan.Limit(qplan.Scan("T"), 2),
        "limit-zero": lambda: qplan.Limit(qplan.Scan("T"), 0),
        "inner": lambda: _join("inner"),
        "leftsemi": lambda: _join("leftsemi"),
        "leftanti": lambda: _join("leftanti"),
        "leftouter": lambda: _join("leftouter"),
        "index-join": lambda: qplan.IndexJoin(
            qplan.Scan("T"), qplan.Scan("U"), col("t_id"), col("u_tid"),
            index_table="T", index_column="t_id"),
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_one_batch_holds_the_interpreters_rows(self, name):
        catalog = _keyed_catalog()
        plan = self.PLANS[name]()
        qplan.validate(plan, catalog)
        batch = VectorizedEngine(catalog).execute_batch(plan)
        assert isinstance(batch, ColumnBatch)
        fields = qplan.output_fields(plan, catalog)
        rows = [{name: batch.columns[name][i] for name in fields}
                for i in batch.indices()]
        assert rows == volcano_execute(plan, catalog)

    def test_left_outer_puts_matched_pairs_first_then_padded_rows(self):
        catalog = _keyed_catalog()
        rows = VectorizedEngine(catalog).execute(_join("leftouter"))
        # the probe's matches in probe order (u_key 20, then 10's two rows),
        # then the unmatched build rows in bucket order, padded with None
        assert [(row["t_id"], row["u_name"]) for row in rows] == \
            [(2, "x"), (1, "z"), (3, "z"), (4, None), (5, None)]
        assert rows == volcano_execute(_join("leftouter"), catalog)

    @staticmethod
    def _charges(catalog, plan):
        charged = []
        with governed(QueryBudget()) as governor:
            checkpoint = governor.checkpoint
            governor.checkpoint = lambda rows: charged.append(rows) or checkpoint(rows)
            VectorizedEngine(catalog).execute(plan)
        assert governor.stats.checkpoints == len(charged)
        assert governor.stats.rows_processed == sum(charged)
        return charged

    def test_one_checkpoint_per_executed_operator(self):
        plan = qplan.Sort(qplan.Agg(
            qplan.Project(qplan.Scan("T"), [("t_tag", col("t_tag"))]),
            [("t_tag", col("t_tag"))], [qplan.AggSpec("count", None, "n")]),
            [(col("n"), "desc")])
        # scan, project, agg, sort: each charges its selected rows once
        assert self._charges(_keyed_catalog(), plan) == [5, 5, 3, 3]

    def test_a_shared_subplan_is_charged_once(self):
        revenue = qplan.Agg(qplan.Scan("T"), [("t_tag", col("t_tag"))],
                            [qplan.AggSpec("sum", col("t_val"), "total")])
        top = qplan.Agg(revenue, [], [qplan.AggSpec("max", col("total"), "best")])
        plan = qplan.Select(qplan.HashJoin(revenue, top, lit(0), lit(0)),
                            col("total") == col("best"))
        assert qplan.shared_subplan_fingerprints(plan)
        # scan and revenue once, top (over the replayed revenue), join, select
        assert self._charges(_keyed_catalog(), plan) == [5, 3, 1, 3, 1]


class TestDictionaryCodePredicates:
    """String ==/IN/prefix-LIKE predicates over base-table scans evaluate on
    dictionary codes; emitted rows are identical to raw-value filtering."""

    @staticmethod
    def _execute(plan, catalog):
        return VectorizedEngine(catalog).execute(plan)

    def test_equality_rewrites_to_codes(self, tiny_catalog):
        from repro.dsl.expr import wrap
        from repro.storage.access import AccessLayer, rewrite_string_predicates
        layer = AccessLayer.for_catalog(tiny_catalog)
        predicate = wrap(col("r_name") == "R1")
        _, code_columns = rewrite_string_predicates(
            predicate, "R", tiny_catalog.table("R").schema.columns, layer)
        assert code_columns  # the rewrite applies: r_name has a dictionary

        rows = self._execute(qplan.Select(qplan.Scan("R"), predicate), tiny_catalog)
        assert [r["r_id"] for r in rows] == [1, 3, 5]
        # code columns never leak into emitted rows
        assert all(set(r) == {"r_id", "r_name", "r_sid"} for r in rows)

    def test_in_list_on_codes(self, tiny_catalog):
        from repro.dsl.expr import in_list
        plan = qplan.Select(qplan.Scan("R"),
                            in_list(col("r_name"), ["R1", "R3"]))
        rows = self._execute(plan, tiny_catalog)
        assert [r["r_id"] for r in rows] == [1, 3, 4, 5]

    def test_absent_literal_folds(self, tiny_catalog):
        assert self._execute(qplan.Select(qplan.Scan("R"), col("r_name") == "ZZZ"),
                             tiny_catalog) == []
        rows = self._execute(qplan.Select(qplan.Scan("R"), col("r_name") != "ZZZ"),
                             tiny_catalog)
        assert len(rows) == 5

    def test_parity_with_generic_select_path(self, tiny_catalog):
        """The same predicate through the non-scan Select path (no dictionary
        rewriting) must produce identical rows in identical order, and so
        must the interpreter, which never reads codes."""
        predicate = col("r_name") == "R1"
        fast = self._execute(qplan.Select(qplan.Scan("R"), predicate), tiny_catalog)
        slow = self._execute(qplan.Select(
            qplan.Project(qplan.Scan("R"),
                          [("r_id", col("r_id")), ("r_name", col("r_name")),
                           ("r_sid", col("r_sid"))]),
            predicate), tiny_catalog)
        assert fast == slow
        assert fast == volcano_execute(qplan.Select(qplan.Scan("R"), predicate),
                                       tiny_catalog)
