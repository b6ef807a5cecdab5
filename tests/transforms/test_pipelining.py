"""Unit tests for the push-engine pipelining lowering."""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import Col, col
from repro.engine.volcano import execute
from repro.ir.nodes import Program
from repro.ir.traversal import count_ops, iter_program_stmts, ops_used
from repro.stack import CompilationContext, QPLAN, SCALITE_MAP_LIST
from repro.stack.configs import build_config
from repro.transforms.pipelining import PipeliningError, PushPipelineLowering


def lower(plan, catalog, flags=None, config_name="dblab-4"):
    """Run the configuration's own QPlan lowering (dblab-4: the push engine
    into ScaLite[Map, List])."""
    config = build_config(config_name)
    context = CompilationContext(catalog=catalog, flags=flags or config.flags)
    return config.stack.lowering_from(QPLAN).run(plan, context), context


def no_access_flags(config_name="dblab-4"):
    """The hoisted-build mode: stacks and ladder modes without the catalog
    access layer keep the per-query MultiMap build (paper footnote 11)."""
    return build_config(config_name).flags.copy_with(catalog_access_layer=False)


def build_stmts(program):
    """The statements standing for hash-join builds: a per-query MultiMap, or
    the catalog's resident partition when the access layer serves it."""
    return [s for s, _ in iter_program_stmts(program)
            if s.expr.op in ("mmap_new", "access_partition")]


def compile_and_run(plan, catalog, config_name="dblab-5"):
    config = build_config(config_name)
    compiled = QueryCompiler(config.stack, config.flags).compile(plan, catalog, "test")
    return compiled


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


class TestLoweringStructure:
    def test_scan_becomes_bounded_loop(self, tiny_catalog):
        program, _ = lower(Q.Scan("R"), tiny_catalog)
        assert isinstance(program, Program)
        counts = count_ops(program)
        assert counts["for_range"] == 1
        assert counts["table_size"] == 1
        assert program.language == "ScaLite[Map, List]"

    def test_select_emits_conditional_inside_loop(self, tiny_catalog):
        program, _ = lower(Q.Select(Q.Scan("R"), col("r_id") > 2), tiny_catalog)
        assert count_ops(program)["if_"] >= 1

    def test_pipelining_produces_no_intermediate_lists_for_select_chain(self, tiny_catalog):
        """Fused selects share one loop: no materialisation between operators."""
        plan = Q.Select(Q.Select(Q.Scan("R"), col("r_id") > 1), col("r_sid") > 5)
        program, _ = lower(plan, tiny_catalog)
        counts = count_ops(program)
        assert counts["for_range"] == 1
        # only the query result list is ever allocated
        assert counts["list_new"] == 1

    def test_hash_join_uses_multimap(self, tiny_catalog):
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog, no_access_flags())
        used = ops_used(program)
        assert {"mmap_new", "mmap_add", "mmap_get", "list_foreach"} <= used

    def test_base_table_build_is_the_catalogs_partition(self, tiny_catalog):
        """With the access layer on, a partitionable build is a lookup: the
        MultiMap probe stays, the build loop and its records are gone."""
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog)
        used = ops_used(program)
        assert {"access_partition", "mmap_get", "list_foreach"} <= used
        assert not {"mmap_new", "mmap_add"} & used
        assert [s.expr.op for s in program.hoisted.stmts] == ["access_partition"]

    def test_aggregate_uses_hashmap_agg(self, tiny_catalog):
        plan = Q.Agg(Q.Scan("S"), [("s_rid", col("s_rid"))],
                     [Q.AggSpec("sum", col("s_val"), "total")])
        program, _ = lower(plan, tiny_catalog)
        used = ops_used(program)
        assert {"hashmap_agg_new", "hashmap_agg_update", "hashmap_agg_foreach"} <= used

    def test_sort_key_must_be_plain_column(self, tiny_catalog):
        plan = Q.Sort(Q.Scan("S"), [(col("s_val") * 2, "asc")])
        with pytest.raises(PipeliningError):
            lower(plan, tiny_catalog)

    def test_requires_catalog(self, tiny_catalog):
        lowering = PushPipelineLowering(SCALITE_MAP_LIST)
        with pytest.raises(PipeliningError):
            lowering.run(Q.Scan("R"), CompilationContext(catalog=None))

    @pytest.mark.parametrize("access", [True, False])
    def test_dense_key_annotations_attached(self, tiny_catalog, access):
        """Key range facts flow to the build as annotations (Section 3.3)."""
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog,
                           None if access else no_access_flags())
        builds = build_stmts(program)
        assert len(builds) == 1
        assert builds[0].expr.op == ("access_partition" if access else "mmap_new")
        attrs = builds[0].expr.attrs
        assert attrs["key_lo"] == 10 and attrs["key_hi"] == 40
        assert attrs["build_is_base"] is True

    def test_probe_in_range_detected_for_fk_pk_join(self):
        """A foreign-key probe against its referenced key shares the key domain."""
        from repro.storage.catalog import Catalog
        from repro.storage.layouts import ColumnarTable
        from repro.storage.schema import TableSchema, int_column
        catalog = Catalog()
        catalog.register(ColumnarTable(
            TableSchema("dept", [int_column("d_id")], primary_key=("d_id",)),
            {"d_id": [1, 2, 3]}))
        catalog.register(ColumnarTable(
            TableSchema("emp", [int_column("e_id"),
                                int_column("e_dept", references=("dept", "d_id"))],
                        primary_key=("e_id",)),
            {"e_id": [10, 11], "e_dept": [1, 3]}))
        plan = Q.HashJoin(Q.Scan("dept"), Q.Scan("emp"), col("d_id"), col("e_dept"))
        program, _ = lower(plan, catalog)
        attrs = build_stmts(program)[0].expr.attrs
        assert attrs["probe_in_range"] is True
        assert attrs["unique"] is True

    def test_probe_guard_kept_without_foreign_key(self, tiny_catalog):
        """The tiny catalog has a dangling rid and no FK: the guard must stay."""
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog)
        attrs = build_stmts(program)[0].expr.attrs
        assert attrs["probe_in_range"] is False

    @pytest.mark.parametrize("access", [True, False])
    def test_partitioned_build_moves_to_hoisted_block(self, tiny_catalog, access):
        flags = build_config("dblab-4").flags if access else no_access_flags()
        plan = Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                          Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog, flags)
        hoisted_ops = {s.expr.op for s in program.hoisted.stmts}
        if access:
            assert hoisted_ops == {"access_partition"}
        else:
            assert "mmap_new" in hoisted_ops
            assert "for_range" in hoisted_ops
        # the filter is applied at probe time (Figure 7c), inside the body
        body_ops = ops_used(Program(body=program.body, params=program.params, language=""))
        assert "eq" in body_ops

    def test_no_partitioning_in_the_compliant_stack(self, tiny_catalog):
        """Same target as dblab-5; the lowering was built without base-build
        partitioning, so the build stays in the query body."""
        plan = Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                          Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog, config_name="tpch-compliant")
        assert program.language == "ScaLite[Map, List]"
        assert not program.hoisted.stmts
        partitioned, _ = lower(plan, tiny_catalog, no_access_flags("dblab-5"),
                               config_name="dblab-5")
        assert partitioned.hoisted.stmts

    def test_no_partitioning_without_a_multimap_level(self, tiny_catalog):
        """Only a stack that lowers MultiMaps can index a partition."""
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        program, _ = lower(plan, tiny_catalog, config_name="dblab-3")
        assert program.language == "ScaLite" and not program.hoisted.stmts

    def test_boxed_records_straight_into_the_target_language(self, tiny_catalog):
        plan = Q.Select(Q.Scan("R"), col("r_id") > 1)
        counts = count_ops(lower(plan, tiny_catalog, config_name="dblab-2")[0])
        assert counts["record_new"] >= 1
        assert counts["record_get"] >= 1
        # one level in between: rows travel as per-field locals
        assert "record_get" not in count_ops(
            lower(plan, tiny_catalog, config_name="dblab-3")[0])


#: the two ends of the configuration range: the pipelining lowering straight
#: into the target language and nothing else, and the full five-level stack
both_ends = pytest.mark.parametrize("config_name",
                                    ["template-expander", "dblab-5"])


class TestLoweredSemantics:
    """The compiled plans must agree with the Volcano interpreter."""

    @pytest.mark.parametrize("config_name", ["template-expander", "dblab-2", "dblab-3",
                                             "dblab-4", "dblab-5", "tpch-compliant"])
    def test_join_aggregate_pipeline(self, tiny_catalog, config_name):
        plan = Q.Agg(
            Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                       Q.Scan("S"), col("r_sid"), col("s_rid")),
            [("r_name", col("r_name"))],
            [Q.AggSpec("sum", col("s_val"), "total"), Q.AggSpec("count", None, "n")])
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))

    @both_ends
    @pytest.mark.parametrize("kind", ["leftsemi", "leftanti", "leftouter"])
    def test_join_variants(self, tiny_catalog, config_name, kind):
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"), kind=kind)
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))

    @both_ends
    def test_join_with_sided_residual(self, tiny_catalog, config_name):
        plan = Q.HashJoin(Q.Scan("S"), Q.Scan("S", fields=("s_rid", "s_id")),
                          col("s_rid"), Col("s_rid"), kind="leftsemi",
                          residual=Col("s_id", "left") != Col("s_id", "right"))
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))

    @both_ends
    def test_nested_loop_join(self, tiny_catalog, config_name):
        plan = Q.NestedLoopJoin(Q.Scan("R"), Q.Scan("S"),
                                predicate=Col("r_sid", "left") < Col("s_rid", "right"))
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))

    @both_ends
    def test_sort_and_limit(self, tiny_catalog, config_name):
        plan = Q.Limit(Q.Sort(Q.Scan("S"), [(col("s_val"), "desc")]), 3)
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert compiled.run(tiny_catalog) == execute(plan, tiny_catalog)

    @both_ends
    def test_global_aggregate_with_having_free_group(self, tiny_catalog, config_name):
        plan = Q.Agg(Q.Scan("S"), [],
                     [Q.AggSpec("min", col("s_val"), "lo"),
                      Q.AggSpec("max", col("s_val"), "hi"),
                      Q.AggSpec("avg", col("s_val"), "mean")])
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))

    @both_ends
    def test_projection_with_computed_columns(self, tiny_catalog, config_name):
        plan = Q.Project(Q.Scan("S"), [("twice", col("s_val") * 2),
                                       ("shifted", col("s_rid") + 1)])
        compiled = compile_and_run(plan, tiny_catalog, config_name)
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))

    def test_prepared_structures_are_reusable_across_runs(self, tiny_catalog):
        plan = Q.Agg(Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid")),
                     [], [Q.AggSpec("count", None, "n")])
        compiled = compile_and_run(plan, tiny_catalog, "dblab-5")
        aux = compiled.prepare(tiny_catalog)
        first = compiled.run(tiny_catalog, aux)
        second = compiled.run(tiny_catalog, aux)
        assert first == second == execute(plan, tiny_catalog)


class TestCatalogAccessLowering:
    """PrunedScan lowers onto the catalog's access layer; IndexJoin reaches it
    as the hash join it is."""

    def _pruned_plan(self):
        from repro.dsl.expr import date
        predicate = (col("l_shipdate") >= date("1994-01-01")) & \
            (col("l_shipdate") < date("1995-01-01"))
        return Q.PrunedScan(
            Q.Scan("lineitem", fields=("l_shipdate", "l_quantity")), predicate,
            (("l_shipdate", ">=", 19940101), ("l_shipdate", "<", 19950101)))

    def _index_plan(self, kind="inner"):
        return Q.IndexJoin(
            Q.Scan("orders", fields=("o_orderkey", "o_totalprice")),
            Q.Scan("lineitem", fields=("l_orderkey", "l_quantity")),
            col("o_orderkey"), col("l_orderkey"), kind=kind,
            index_table="orders", index_column="o_orderkey")

    def test_pruned_scan_loops_over_candidates(self, tpch_catalog):
        program, _ = lower(self._pruned_plan(), tpch_catalog,
                           build_config("dblab-5").flags)
        hoisted_ops = {s.expr.op for s in program.hoisted.stmts}
        assert "access_pruned_indices" in hoisted_ops
        counts = count_ops(program)
        assert counts["list_foreach"] >= 1
        assert "for_range" not in counts  # no full-table loop remains

    def test_pruned_scan_falls_back_without_the_flag(self, tpch_catalog):
        flags = build_config("dblab-5").flags.copy_with(catalog_access_layer=False)
        program, _ = lower(self._pruned_plan(), tpch_catalog, flags)
        assert "access_pruned_indices" not in ops_used(program)
        assert count_ops(program)["for_range"] >= 1

    @pytest.mark.parametrize("kind, partition, single", [
        ("inner", ("orders", "o_orderkey"), True),
        ("leftsemi", ("lineitem", "l_orderkey"), False),
        ("leftouter", ("lineitem", "l_orderkey"), False),
    ])
    def test_index_join_is_the_hash_join_over_a_resident_partition(
            self, tpch_catalog, kind, partition, single):
        """A compiled IndexJoin has no lowering of its own: the build side of
        the hash join it subclasses is the catalog's partition — for the
        inner join's primary-key build, the unique-key index itself."""
        config = build_config("dblab-5")
        lowered = QueryCompiler(config.stack, config.flags).lower(
            self._index_plan(kind), tpch_catalog, "test").program
        fetches = [s.expr for s in lowered.hoisted.stmts
                   if s.expr.op == "access_partition"]
        assert [(e.attrs["table"], e.attrs["column"], e.attrs["single"])
                for e in fetches] == [partition + (single,)]
        counts = count_ops(lowered)
        assert not {"mmap_new", "mmap_add"} & set(counts)
        # prepare builds nothing: no loop in the hoisted block
        assert not any(s.expr.blocks for s in lowered.hoisted.stmts)

    @pytest.mark.parametrize("kind", ["inner", "leftsemi", "leftanti", "leftouter"])
    def test_index_join_rows_match_volcano(self, tpch_catalog, kind):
        plan = Q.Agg(self._index_plan(kind), [],
                     [Q.AggSpec("count", None, "n")])
        compiled = compile_and_run(plan, tpch_catalog)
        assert compiled.run(tpch_catalog) == execute(plan, tpch_catalog)

    def test_pruned_scan_rows_match_volcano(self, tpch_catalog):
        plan = Q.Agg(self._pruned_plan(), [],
                     [Q.AggSpec("sum", col("l_quantity"), "total"),
                      Q.AggSpec("count", None, "n")])
        compiled = compile_and_run(plan, tpch_catalog)
        assert canon(compiled.run(tpch_catalog)) == canon(execute(plan, tpch_catalog))
