"""IR-level common-subplan sharing in the compiled DSL stacks.

The vectorized engine executes repeated subplans once per query through a
runtime cache (``VectorizedEngine._sharing_active``); the compiled stacks get the same
behaviour at compile time: the pipelining lowering materialises each shared
subtree once behind a list binding in the generated program and replays the
binding for every occurrence (:mod:`repro.transforms.subplan_sharing`).

The *execution-count probe*: a counting catalog records every ``column()``
read the generated code performs, so a subplan that scans a table twice in
the unshared program provably scans it once in the shared one.
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.volcano import VolcanoEngine
from repro.ir.traversal import iter_program_stmts
from repro.bench.harness import assert_rows_equivalent
from repro.planner import sort_contract
from repro.stack.configs import build_config
from repro.storage.catalog import Catalog
from repro.tpch.queries import build_query

#: the TPC-H queries whose (raw) plans contain repeated subtrees
SHARED_QUERIES = ("Q11", "Q15", "Q22")


def shared_binding_count(program) -> int:
    """Number of shared-subplan bindings in a compiled program."""
    return sum(1 for stmt, _ in iter_program_stmts(program)
               if "shared_subplan" in stmt.expr.attrs)


class CountingCatalog(Catalog):
    """A catalog that counts every column read of the generated code."""

    def __init__(self, base: Catalog) -> None:
        super().__init__(schema=base.schema, tables=base.tables,
                         statistics=base.statistics)
        self.column_reads = {}

    def column(self, table, column):
        key = (table, column)
        self.column_reads[key] = self.column_reads.get(key, 0) + 1
        return super().column(table, column)

    def reads_of_table(self, table):
        return sum(count for (t, _), count in self.column_reads.items()
                   if t == table)

    def reset(self):
        self.column_reads = {}


@pytest.fixture(autouse=True)
def fresh_cache():
    QueryCompiler.clear_cache()
    yield
    QueryCompiler.clear_cache()


def _compiler(shared: bool, config_name: str = "dblab-5") -> QueryCompiler:
    config = build_config(config_name)
    return QueryCompiler(config.stack,
                         config.flags.copy_with(subplan_sharing=shared))


def _compile(plan, catalog, shared: bool, name: str,
             config_name: str = "dblab-5"):
    return _compiler(shared, config_name).compile(plan, catalog, name)


def _program(plan, catalog, shared: bool, name: str,
             config_name: str = "dblab-5"):
    """The final IR: ``lower`` is where it is, ``CompiledQuery`` is code."""
    return _compiler(shared, config_name).lower(plan, catalog, name).program


class TestSharedBindings:
    @pytest.mark.parametrize("query_name", SHARED_QUERIES)
    def test_shared_queries_materialise_bindings(self, tpch_catalog, query_name):
        program = _program(build_query(query_name), tpch_catalog, True,
                           query_name)
        assert shared_binding_count(program) >= 1

    def test_unshared_plan_gets_no_bindings(self, tpch_catalog):
        program = _program(build_query("Q6"), tpch_catalog, True, "Q6")
        assert shared_binding_count(program) == 0

    def test_flag_off_keeps_the_inlined_duplicates(self, tpch_catalog):
        program = _program(build_query("Q15"), tpch_catalog, False, "Q15-off")
        assert shared_binding_count(program) == 0


class TestExecutionCountProbe:
    """Each shared subplan runs exactly once in the generated program."""

    @pytest.mark.parametrize("query_name,table,shared_reads", [
        ("Q11", "partsupp", 4),   # the partsupp pipeline is built twice
        ("Q15", "lineitem", 4),   # the revenue view feeds a join and a max
        ("Q22", "customer", 3),   # the avg-acctbal subquery reuses the filter
    ])
    def test_shared_subplan_scans_its_table_once(self, tpch_catalog,
                                                 query_name, table,
                                                 shared_reads):
        def reads(compiled, counting):
            counting.reset()
            rows = compiled.run(counting, compiled.prepare(counting))
            return counting.reads_of_table(table), rows

        counting = CountingCatalog(tpch_catalog)
        unshared = _compile(build_query(query_name), counting, False,
                            f"{query_name}-unshared")
        reads_unshared, _ = reads(unshared, counting)

        shared = _compile(build_query(query_name), counting, True,
                          f"{query_name}-shared")
        reads_shared, rows = reads(shared, counting)

        # the duplicated pipeline read the shared subtree's columns twice;
        # the shared binding reads each exactly once
        assert reads_shared == shared_reads
        assert reads_shared < reads_unshared

        raw = build_query(query_name)
        assert_rows_equivalent(VolcanoEngine(tpch_catalog).execute(raw), rows,
                               sort_keys=sort_contract(raw),
                               context=query_name)

    @pytest.mark.parametrize("query_name", SHARED_QUERIES)
    def test_shared_rows_match_the_unshared_program(self, tpch_catalog,
                                                    query_name):
        plan = build_query(query_name)
        shared = _compile(plan, tpch_catalog, True, f"{query_name}-s")
        unshared = _compile(plan, tpch_catalog, False, f"{query_name}-u")
        assert shared.run(tpch_catalog) == unshared.run(tpch_catalog)


class TestHandBuiltSharing:
    @pytest.mark.parametrize("config_name,column_reads", [
        ("dblab-5", 2),             # s_rid + s_val, once each
        ("template-expander", 3),   # no unused-field removal: all of S, once
    ])
    def test_identity_shared_subtree_runs_once(self, tiny_catalog, config_name,
                                               column_reads):
        """One subplan object referenced from two parents (the Q15 shape).
        Sharing lives in the pipelining lowering, so the one-lowering stack
        has it too once the flag (off in that configuration) is set."""
        view = Q.Agg(Q.Select(Q.Scan("S"), col("s_val") > 1.0),
                     [("s_rid", col("s_rid"))],
                     [Q.AggSpec("sum", col("s_val"), "total")])
        plan = Q.HashJoin(
            Q.Project(view, [("k1", col("s_rid")), ("t1", col("total"))]),
            Q.Project(view, [("k2", col("s_rid")), ("t2", col("total"))]),
            col("k1"), col("k2"))
        counting = CountingCatalog(tiny_catalog)
        compiled = _compile(plan, counting, True, "hand", config_name)
        assert shared_binding_count(
            _program(plan, counting, True, "hand", config_name)) == 1
        counting.reset()
        rows = compiled.run(counting, compiled.prepare(counting))
        assert counting.reads_of_table("S") == column_reads
        assert rows == VolcanoEngine(tiny_catalog).execute(plan)
