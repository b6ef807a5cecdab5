"""Execution tests for the access paths across the direct engines and the
one-lowering ``template-expander`` stack.

The planner's access rules are order- and value-preserving, so every plan
containing ``PrunedScan`` / ``IndexJoin`` must return exactly — ``==``, not
just multiset-equal — the rows of its raw counterpart on the Volcano
interpreter, the vectorized engine and the template-expander stack (run with
the catalog access layer on, so its pipelines are index-served too).
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col, date
from repro.engine.vectorized import VectorizedEngine
from repro.engine.volcano import VolcanoEngine
from repro.planner import Planner, PlannerOptions
from repro.stack.configs import build_config
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column, string_column
from repro.tpch.queries import build_query

#: queries whose optimized plans exercise both access ops (and Q4's semi join)
ACCESS_QUERIES = ("Q3", "Q4", "Q6", "Q10", "Q12", "Q14", "Q19")


def expand(plan, catalog):
    """Rows of ``plan`` on the template-expander stack, access layer on."""
    config = build_config("template-expander")
    flags = config.flags.copy_with(catalog_access_layer=True)
    return QueryCompiler(config.stack, flags).compile(plan, catalog).run(catalog)


@pytest.fixture(scope="module")
def planner(tpch_catalog):
    # exact_order keeps the comparison at plain list equality
    return Planner(tpch_catalog, PlannerOptions.exact_order())


class TestExactRowParity:
    @pytest.mark.parametrize("query_name", ACCESS_QUERIES)
    def test_volcano(self, tpch_catalog, planner, query_name):
        raw = build_query(query_name)
        optimized = planner.optimize(build_query(query_name))
        engine = VolcanoEngine(tpch_catalog)
        assert engine.execute(optimized) == engine.execute(raw)

    @pytest.mark.parametrize("query_name", ACCESS_QUERIES)
    def test_vectorized(self, tpch_catalog, planner, query_name):
        raw = build_query(query_name)
        optimized = planner.optimize(build_query(query_name))
        engine = VectorizedEngine(tpch_catalog)
        assert engine.execute(optimized) == engine.execute(raw)

    @pytest.mark.parametrize("query_name", ACCESS_QUERIES)
    def test_vectorized_matches_the_interpreter(self, tpch_catalog, planner,
                                                query_name):
        raw = build_query(query_name)
        optimized = planner.optimize(build_query(query_name))
        assert VectorizedEngine(tpch_catalog).execute(optimized) == \
            VolcanoEngine(tpch_catalog).execute(raw)

    @pytest.mark.parametrize("query_name", ACCESS_QUERIES)
    def test_template_expander(self, tpch_catalog, planner, query_name):
        raw = build_query(query_name)
        optimized = planner.optimize(build_query(query_name))
        assert expand(optimized, tpch_catalog) == expand(raw, tpch_catalog)


class TestIndexJoinKinds:
    """Hand-built IndexJoins of every supported kind match their HashJoins."""

    def _pair(self, kind, residual=None):
        hash_plan = Q.HashJoin(Q.Scan("customer"), Q.Scan("orders"),
                               col("c_custkey"), col("o_custkey"),
                               kind=kind, residual=residual)
        index_plan = Q.IndexJoin(Q.Scan("customer"), Q.Scan("orders"),
                                 col("c_custkey"), col("o_custkey"),
                                 kind=kind, residual=residual,
                                 index_table="customer",
                                 index_column="c_custkey")
        return hash_plan, index_plan

    @pytest.mark.parametrize("kind", ["inner", "leftsemi", "leftanti"])
    def test_bare_build_kinds(self, tpch_catalog, kind):
        hash_plan, index_plan = self._pair(kind)
        for engine in (VolcanoEngine(tpch_catalog),
                       VectorizedEngine(tpch_catalog)):
            assert engine.execute(index_plan) == engine.execute(hash_plan)
        assert expand(index_plan, tpch_catalog) == expand(hash_plan, tpch_catalog)

    @pytest.mark.parametrize("kind", ["inner", "leftsemi", "leftanti"])
    def test_filtered_build_kinds(self, tpch_catalog, kind):
        """The node is narrowed to a bare-scan build: a filtered one fails
        validation (so no stack compiles it), and a direct engine handed one
        anyway builds per query."""
        predicate = col("c_custkey") <= 40
        hash_plan = Q.HashJoin(
            Q.Select(Q.Scan("customer"), predicate), Q.Scan("orders"),
            col("c_custkey"), col("o_custkey"), kind=kind)
        index_plan = Q.IndexJoin(
            Q.Select(Q.Scan("customer"), predicate), Q.Scan("orders"),
            col("c_custkey"), col("o_custkey"), kind=kind,
            index_table="customer", index_column="c_custkey")
        with pytest.raises(Q.PlanError, match="bare scan"):
            Q.validate(index_plan, tpch_catalog)
        with pytest.raises(Q.PlanError, match="bare scan"):
            expand(index_plan, tpch_catalog)
        for engine in (VolcanoEngine(tpch_catalog),
                       VectorizedEngine(tpch_catalog)):
            assert engine.execute(index_plan) == engine.execute(hash_plan)

    def test_residual_predicate(self, tpch_catalog):
        residual = col("o_orderdate") < date("1995-01-01")
        hash_plan, index_plan = self._pair("inner", residual=residual)
        for engine in (VolcanoEngine(tpch_catalog),
                       VectorizedEngine(tpch_catalog)):
            assert engine.execute(index_plan) == engine.execute(hash_plan)


class TestIndexJoinIsItsHashJoin:
    """On every direct engine an ``IndexJoin`` returns the row list of the
    ``HashJoin`` it replaces, order included, whatever the probe keys hold:
    repeats, keys outside the key range or in a hole of it, ``None``, and
    ``3.0`` / ``True`` against integer keys (a dict matches both)."""

    def _catalog(self):
        catalog = Catalog()
        catalog.register(ColumnarTable(
            TableSchema("dim", [int_column("d_key"), string_column("d_name"),
                                int_column("d_val")], primary_key=("d_key",)),
            {"d_key": [2, 0, 3, 6, 1, 5], "d_name": ["c", "a", "d", "g", "b", "f"],
             "d_val": [4, 1, 7, 3, 2, 9]}))
        catalog.register(ColumnarTable(
            TableSchema("probe", [int_column("p_key"), int_column("p_val")]),
            {"p_key": [2, 99, None, 3.0, True, 2, 4, -1, 0, 5, 3],
             "p_val": [5, 0, 3, 9, 1, 2, 8, 4, 0, 10, 6]}))
        return catalog

    @pytest.mark.parametrize("residual", [None, col("d_val") <= col("p_val")],
                             ids=["no_residual", "residual"])
    @pytest.mark.parametrize("kind", Q.JOIN_KINDS)
    def test_rows_equal_the_hash_join_in_order(self, kind, residual):
        from repro.storage.access import DirectArray
        catalog = self._catalog()
        assert isinstance(catalog.access_layer().key_index("dim", "d_key"),
                          DirectArray)
        hash_plan = Q.HashJoin(Q.Scan("dim"), Q.Scan("probe"), col("d_key"),
                               col("p_key"), kind, residual)
        index_plan = Q.IndexJoin(Q.Scan("dim"), Q.Scan("probe"), col("d_key"),
                                 col("p_key"), kind, residual,
                                 index_table="dim", index_column="d_key")
        Q.validate(index_plan, catalog)
        for engine in (VolcanoEngine(catalog), VectorizedEngine(catalog)):
            expected = engine.execute(hash_plan)
            assert expected, "every kind keeps some rows of this catalog"
            assert engine.execute(index_plan) == expected, type(engine).__name__


class TestSparseUniqueKeys:
    """A unique-but-sparse key has no index: its joins build per query in
    every engine, and the planner leaves them hash joins."""

    def _catalog(self):
        catalog = Catalog()
        dim = TableSchema("dim", [int_column("d_id"), string_column("d_name")],
                          primary_key=("d_id",))
        fact = TableSchema("fact", [int_column("f_id"), int_column("f_did")],
                           primary_key=("f_id",))
        catalog.register(ColumnarTable(dim, {
            "d_id": [5, 700000, 31],
            "d_name": ["a", "b", "c"],
        }))
        catalog.register(ColumnarTable(fact, {
            "f_id": [1, 2, 3, 4],
            "f_did": [31, 5, 999, 700000],
        }))
        return catalog

    def test_sparse_key_joins_build_per_query(self):
        catalog = self._catalog()
        assert catalog.access_layer().key_index("dim", "d_id") is None
        hash_plan = Q.HashJoin(Q.Scan("dim"), Q.Scan("fact"),
                               col("d_id"), col("f_did"))
        assert not any(isinstance(node, Q.IndexJoin)
                       for node in Q.walk(Planner(catalog).optimize(hash_plan)))
        index_plan = Q.IndexJoin(Q.Scan("dim"), Q.Scan("fact"),
                                 col("d_id"), col("f_did"),
                                 index_table="dim", index_column="d_id")
        for engine in (VolcanoEngine(catalog), VectorizedEngine(catalog)):
            assert engine.execute(index_plan) == engine.execute(hash_plan)


class TestBuildOnce:
    def test_indices_are_reused_across_engines_and_executions(self, tpch_catalog):
        layer = tpch_catalog.access_layer()
        plan = Planner(tpch_catalog).optimize(build_query("Q12"))
        VectorizedEngine(tpch_catalog).execute(plan)
        counts = dict(layer.build_counts)
        assert counts[("key_index", "orders", "o_orderkey")] == 1
        # more executions, a different engine, a fresh engine instance:
        # nothing is ever rebuilt
        VolcanoEngine(tpch_catalog).execute(plan)
        VectorizedEngine(tpch_catalog).execute(plan)
        VectorizedEngine(tpch_catalog).execute(plan)
        assert layer.build_counts == counts


class TestDictionaryEncodedSelects:
    def test_string_equality_on_vectorized_matches_volcano(self, tpch_catalog):
        plan = Q.Agg(
            Q.Select(Q.Scan("customer"), col("c_mktsegment") == "BUILDING"),
            [("c_mktsegment", col("c_mktsegment"))],
            [Q.AggSpec("count", None, "n")])
        assert VectorizedEngine(tpch_catalog).execute(plan) == \
            VolcanoEngine(tpch_catalog).execute(plan)

    def test_absent_string_selects_nothing(self, tpch_catalog):
        plan = Q.Select(Q.Scan("customer"), col("c_mktsegment") == "NO SUCH")
        assert VectorizedEngine(tpch_catalog).execute(plan) == []

    def test_dictionary_built_once_for_repeated_selects(self, tpch_catalog):
        engine = VectorizedEngine(tpch_catalog)
        plan = Q.Select(Q.Scan("customer"), col("c_mktsegment") == "BUILDING")
        engine.execute(plan)
        layer = tpch_catalog.access_layer()
        count = layer.build_counts[("dictionary", "customer", "c_mktsegment")]
        engine.execute(plan)
        engine.execute(plan)
        assert layer.build_counts[
            ("dictionary", "customer", "c_mktsegment")] == count == 1


class TestLeftOuterIndexJoin:
    """Leftouter joins are index-served with null-padded probe misses.

    Regression for the silent fallback: the direct engines used to
    drop to a full hash build for ``kind="leftouter"`` even when the build
    side was an indexed PK scan.
    """

    def _pair(self, residual=None):
        hash_plan = Q.HashJoin(Q.Scan("customer"), Q.Scan("orders"),
                               col("c_custkey"), col("o_custkey"),
                               kind="leftouter", residual=residual)
        index_plan = Q.IndexJoin(Q.Scan("customer"), Q.Scan("orders"),
                                 col("c_custkey"), col("o_custkey"),
                                 kind="leftouter", residual=residual,
                                 index_table="customer",
                                 index_column="c_custkey")
        return hash_plan, index_plan

    def test_rows_match_the_hash_join_exactly(self, tpch_catalog):
        hash_plan, index_plan = self._pair()
        for engine in (VolcanoEngine(tpch_catalog), VectorizedEngine(tpch_catalog)):
            assert engine.execute(index_plan) == engine.execute(hash_plan)
        assert expand(index_plan, tpch_catalog) == expand(hash_plan, tpch_catalog)

    def test_unmatched_rows_are_padded_with_none_in_every_probe_field(
            self, tpch_catalog):
        _, index_plan = self._pair()
        probe_fields = Q.output_fields(Q.Scan("orders"), tpch_catalog)
        build_fields = Q.output_fields(Q.Scan("customer"), tpch_catalog)
        for rows in (
            VolcanoEngine(tpch_catalog).execute(index_plan),
            VectorizedEngine(tpch_catalog).execute(index_plan),
            expand(index_plan, tpch_catalog),
        ):
            padded = [row for row in rows if row["o_orderkey"] is None]
            assert padded, "the 0.001-sf catalog has customers without orders"
            for row in padded:
                # every probe-side field of the padded row is None, every
                # preserved (build-side) field is a real customer value
                assert all(row[name] is None for name in probe_fields)
                assert all(row[name] is not None for name in build_fields)
        customers = tpch_catalog.size("customer")
        with_orders = len({row["o_custkey"]
                           for row in VolcanoEngine(tpch_catalog).execute(
                               Q.Scan("orders"))})
        assert len(padded) == customers - with_orders

    def test_residual_failures_are_padded_too(self, tpch_catalog):
        residual = col("o_totalprice") > 1e12  # no order ever matches
        hash_plan, index_plan = self._pair(residual=residual)
        engine = VolcanoEngine(tpch_catalog)
        rows = engine.execute(index_plan)
        assert rows == engine.execute(hash_plan)
        assert len(rows) == tpch_catalog.size("customer")
        assert all(row["o_orderkey"] is None for row in rows)

    def test_planner_selects_the_leftouter_index_join(self, tpch_catalog):
        plan = Q.Agg(
            Q.HashJoin(Q.Scan("customer"), Q.Scan("orders"),
                       col("c_custkey"), col("o_custkey"), kind="leftouter"),
            [], [Q.AggSpec("count", None, "n")])
        optimized = Planner(tpch_catalog).optimize(plan)
        joins = [node for node in Q.walk(optimized)
                 if isinstance(node, Q.IndexJoin)]
        assert joins and joins[0].kind == "leftouter"
        assert VolcanoEngine(tpch_catalog).execute(optimized) == \
            VolcanoEngine(tpch_catalog).execute(plan)
