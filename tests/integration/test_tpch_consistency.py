"""Integration tests: every TPC-H query, every engine, identical results.

This is the core correctness claim of the reproduction: the multi-level stack
may restructure the computation arbitrarily (push pipelines, partitioned
indices, string dictionaries, dense arrays) but the answer of every query must
stay exactly the interpreter's answer, at every number of DSL levels.
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan
from repro.engine.volcano import execute
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.tpch.queries import QUERY_NAMES, all_queries, build_query


def canon(rows):
    """Order-insensitive canonical form of a result set."""
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


def ordered_prefix_is_sorted(rows, keys):
    """Check that rows respect the (field, order) keys of the top-level sort."""
    def as_key(row):
        return tuple((row[f] if o == "asc" else _neg(row[f])) for f, o in keys)
    values = [as_key(r) for r in rows]
    return values == sorted(values)


def _neg(value):
    if isinstance(value, (int, float)):
        return -value
    return tuple(-ord(c) for c in str(value))


@pytest.fixture(scope="module")
def reference_results(tpch_catalog):
    return {name: execute(build_query(name), tpch_catalog) for name in QUERY_NAMES}


class TestPlanWellFormedness:
    def test_all_queries_build_and_validate(self, tpch_catalog):
        for name, plan in all_queries().items():
            qplan.validate(plan, tpch_catalog)

    def test_all_queries_touch_expected_tables(self):
        plans = all_queries()
        assert "lineitem" in qplan.tables_used(plans["Q1"])
        assert set(qplan.tables_used(plans["Q5"])) >= {"customer", "orders", "lineitem",
                                                       "supplier", "nation", "region"}
        assert "part" in qplan.tables_used(plans["Q19"])

    def test_registry_is_complete(self):
        assert len(QUERY_NAMES) == 22
        with pytest.raises(KeyError):
            build_query("Q23")


class TestAllQueriesAtFullStack:
    """All 22 queries: interpreter vs the two ends of the configuration
    range — the five-level stack and the one-lowering template expander."""

    @pytest.mark.parametrize("config_name,access", [
        ("dblab-5", True), ("dblab-5", False), ("template-expander", False)],
        ids=["access", "no_access", "template-expander"])
    @pytest.mark.parametrize("query_name", QUERY_NAMES)
    def test_config_matches_interpreter(self, tpch_catalog, reference_results,
                                        query_name, config_name, access):
        """dblab-5 with the catalog access layer on (hash builds over base
        tables are the catalog's resident partitions) and off (ordinary
        per-query builds); the template expander has no level that could
        use it."""
        config = build_config(config_name)
        plan = build_query(query_name)
        flags = config.flags.copy_with(catalog_access_layer=access)
        compiled = QueryCompiler(config.stack, flags).compile(
            plan, tpch_catalog, query_name)
        assert canon(compiled.run(tpch_catalog)) == canon(reference_results[query_name])


class TestRepresentativeQueriesAtEveryLevel:
    """A representative subset across every stack configuration."""

    REPRESENTATIVE = ("Q1", "Q3", "Q4", "Q6", "Q13", "Q14", "Q16", "Q21", "Q22")

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    @pytest.mark.parametrize("query_name", REPRESENTATIVE)
    def test_configuration_matches_interpreter(self, tpch_catalog, reference_results,
                                               query_name, config_name):
        config = build_config(config_name)
        plan = build_query(query_name)
        compiled = QueryCompiler(config.stack, config.flags).compile(
            plan, tpch_catalog, query_name)
        assert canon(compiled.run(tpch_catalog)) == canon(reference_results[query_name])


class TestOrderingOfSortedQueries:
    """Queries ending in Sort/Limit must respect the requested order."""

    CASES = {
        "Q1": (("l_returnflag", "asc"), ("l_linestatus", "asc")),
        "Q3": (("revenue", "desc"),),
        "Q10": (("revenue", "desc"),),
        "Q16": (("supplier_cnt", "desc"), ("p_brand", "asc")),
    }

    @pytest.mark.parametrize("query_name", sorted(CASES))
    def test_compiled_output_is_sorted(self, tpch_catalog, query_name):
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(
            build_query(query_name), tpch_catalog, query_name)
        rows = compiled.run(tpch_catalog)
        assert rows, f"{query_name} returned no rows at the test scale factor"
        assert ordered_prefix_is_sorted(rows, self.CASES[query_name])
