"""Tests for unused-field removal, string dictionaries and data-structure
specialization (the level-specific transformations of the stack)."""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col, in_list, like
from repro.engine.volcano import execute
from repro.ir.traversal import ops_used
from repro.stack import CompilationContext, SCALITE, SCALITE_MAP_LIST
from repro.stack.configs import build_config
from repro.transforms.field_removal import UnusedFieldRemoval
from repro.transforms.hashmap_specialization import HashTableSpecialization
from repro.transforms.pipelining import PushPipelineLowering
from repro.transforms.string_dictionary import StringDictionaries


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


class TestUnusedFieldRemoval:
    def _plan(self):
        return Q.Agg(
            Q.HashJoin(Q.Select(Q.Scan("R"), col("r_name") == "R1"),
                       Q.Scan("S"), col("r_sid"), col("s_rid")),
            [], [Q.AggSpec("sum", col("s_val"), "total")])

    def test_scans_are_pruned_to_referenced_columns(self, tiny_catalog):
        context = CompilationContext(catalog=tiny_catalog,
                                     flags=build_config("dblab-4").flags)
        pruned = UnusedFieldRemoval().run(self._plan(), context)
        scans = {node.table: node for node in Q.walk(pruned) if isinstance(node, Q.Scan)}
        assert set(scans["R"].fields) == {"r_name", "r_sid"}
        assert set(scans["S"].fields) == {"s_rid", "s_val"}

    def test_pruning_preserves_results(self, tiny_catalog):
        context = CompilationContext(catalog=tiny_catalog,
                                     flags=build_config("dblab-4").flags)
        plan = self._plan()
        pruned = UnusedFieldRemoval().run(plan, context)
        assert canon(execute(pruned, tiny_catalog)) == canon(execute(plan, tiny_catalog))

    def test_semi_join_prunes_right_side_to_key_and_residual(self, tiny_catalog):
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"),
                          kind="leftsemi")
        context = CompilationContext(catalog=tiny_catalog,
                                     flags=build_config("dblab-4").flags)
        pruned = UnusedFieldRemoval().run(plan, context)
        right_scan = [n for n in Q.walk(pruned) if isinstance(n, Q.Scan) and n.table == "S"][0]
        assert right_scan.fields == ("s_rid",)

    def test_scan_never_pruned_to_zero_columns(self, tiny_catalog):
        plan = Q.Agg(Q.Scan("R"), [], [Q.AggSpec("count", None, "n")])
        context = CompilationContext(catalog=tiny_catalog,
                                     flags=build_config("dblab-4").flags)
        pruned = UnusedFieldRemoval().run(plan, context)
        scan = [n for n in Q.walk(pruned) if isinstance(n, Q.Scan)][0]
        assert len(scan.fields) == 1


class TestStringDictionaries:
    def _lowered(self, tiny_catalog, plan, catalog_access=False):
        flags = build_config("dblab-4").flags.copy_with(
            catalog_access_layer=catalog_access)
        context = CompilationContext(catalog=tiny_catalog, flags=flags)
        program = PushPipelineLowering(SCALITE_MAP_LIST).run(plan, context)
        return StringDictionaries().run(program, context), context

    def test_equality_predicate_rewritten_to_codes(self, tiny_catalog):
        plan = Q.Select(Q.Scan("R"), col("r_name") == "R1")
        program, context = self._lowered(tiny_catalog, plan)
        hoisted_ops = {s.expr.op for s in program.hoisted.stmts}
        assert {"strdict_build", "strdict_encode_column", "strdict_code"} <= hoisted_ops
        assert ("R", "r_name") in context.info["string_dictionary_columns"]

    def test_catalog_access_layer_serves_the_dictionary(self, tiny_catalog):
        """With the access layer on, nothing is built or encoded per query:
        the hoisted block fetches the catalog-resident dictionary and its
        shared code column."""
        plan = Q.Select(Q.Scan("R"), col("r_name") == "R1")
        program, context = self._lowered(tiny_catalog, plan, catalog_access=True)
        hoisted_ops = {s.expr.op for s in program.hoisted.stmts}
        assert {"access_strdict", "access_strdict_codes", "strdict_code"} <= hoisted_ops
        assert "strdict_build" not in hoisted_ops
        assert "strdict_encode_column" not in hoisted_ops
        assert ("R", "r_name") in context.info["string_dictionary_columns"]

    def test_prefix_predicate_uses_ordered_dictionary_range(self, tiny_catalog):
        plan = Q.Select(Q.Scan("R"), like(col("r_name"), "R%"))
        program, _ = self._lowered(tiny_catalog, plan)
        hoisted = [s for s in program.hoisted.stmts if s.expr.op == "strdict_build"]
        assert hoisted and hoisted[0].expr.attrs["ordered"] is True
        assert any(s.expr.op == "strdict_prefix_range" for s in program.hoisted.stmts)

    def test_prefix_predicate_on_the_catalog_dictionary(self, tiny_catalog):
        """Catalog dictionaries are always sorted, so prefix predicates use
        the access-layer range op (inclusive [lo, hi] contract)."""
        plan = Q.Select(Q.Scan("R"), like(col("r_name"), "R%"))
        program, _ = self._lowered(tiny_catalog, plan, catalog_access=True)
        hoisted_ops = {s.expr.op for s in program.hoisted.stmts}
        assert "access_prefix_range" in hoisted_ops
        assert "strdict_prefix_range" not in hoisted_ops

    def test_in_list_predicate_rewritten(self, tiny_catalog):
        plan = Q.Select(Q.Scan("R"), in_list(col("r_name"), ["R1", "R3"]))
        program, _ = self._lowered(tiny_catalog, plan)
        codes = [s for s in program.hoisted.stmts if s.expr.op == "strdict_code"]
        assert len(codes) == 2

    def test_numeric_predicates_untouched(self, tiny_catalog):
        plan = Q.Select(Q.Scan("R"), col("r_sid") == 10)
        program, _ = self._lowered(tiny_catalog, plan)
        assert not program.hoisted.stmts

    def test_results_preserved_end_to_end(self, tiny_catalog):
        plan = Q.Agg(Q.Select(Q.Scan("R"), col("r_name") == "R1"), [],
                     [Q.AggSpec("count", None, "n")])
        config = build_config("dblab-4")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog, "sd")
        assert compiled.run(tiny_catalog) == execute(plan, tiny_catalog)
        assert ".build(" in compiled.source or \
            "_rt.catalog_dictionary(" in compiled.source

    def test_absent_constant_still_correct(self, tiny_catalog):
        """Comparing against a string that never occurs yields an always-false code."""
        plan = Q.Agg(Q.Select(Q.Scan("R"), col("r_name") == "NO_SUCH"), [],
                     [Q.AggSpec("count", None, "n")])
        config = build_config("dblab-4")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog, "sd")
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))


class TestHashTableSpecialization:
    @pytest.mark.parametrize("access", [True, False])
    def test_dense_base_build_becomes_bucket_array(self, tiny_catalog, access):
        plan = Q.Agg(Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid")),
                     [], [Q.AggSpec("count", None, "n")])
        flags = build_config("dblab-4").flags.copy_with(catalog_access_layer=access)
        context = CompilationContext(catalog=tiny_catalog, flags=flags)
        program = PushPipelineLowering(SCALITE_MAP_LIST).run(plan, context)
        specialized = HashTableSpecialization(SCALITE).run(program, context)
        used = ops_used(specialized)
        assert not {"mmap_new", "mmap_add", "mmap_get"} & used
        if access:
            # the bucket array is the catalog's partition, claimed as lists
            claimed = [s for s in specialized.hoisted.stmts
                       if s.expr.op == "access_partition"]
            assert [s.expr.attrs["single"] for s in claimed] == [False]
            assert "array_new" not in used
        else:
            assert "array_new" in used
        assert specialized.language == "ScaLite"

    def test_generic_keys_stay_on_generic_containers(self, tiny_catalog):
        """String join keys have no dense range: the GLib-substitute map survives."""
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("R", fields=("r_name",)),
                          col("r_name"), col("r_name"), kind="leftsemi")
        flags = build_config("dblab-4").flags
        context = CompilationContext(catalog=tiny_catalog, flags=flags)
        program = PushPipelineLowering(SCALITE_MAP_LIST).run(plan, context)
        specialized = HashTableSpecialization(SCALITE).run(program, context)
        assert "mmap_new" in ops_used(specialized)

    def test_specialization_is_a_lowering_a_stack_lists_or_not(self, tiny_catalog):
        """No flag switches it off: a stack without the ScaLite[Map, List]
        level has no such lowering and keeps the generic MultiMap down to
        C.Py; a stack that lists it always specialises."""
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_sid"), col("s_rid"))
        lowered = {}
        for config_name in ("dblab-3", "dblab-4"):
            config = build_config(config_name)
            listed = "hash-table-specialization" in [
                low.name for low in config.stack.lowerings]
            program = QueryCompiler(config.stack, config.flags).lower(
                plan, tiny_catalog, "hts").program
            lowered[config_name] = (listed, "mmap_new" in ops_used(program))
        assert lowered == {"dblab-3": (False, True), "dblab-4": (True, False)}

    def test_dense_aggregation_uses_dense_table(self, tiny_catalog):
        plan = Q.Agg(Q.Scan("S"), [("s_id", col("s_id"))],
                     [Q.AggSpec("sum", col("s_val"), "total")])
        flags = build_config("dblab-4").flags
        context = CompilationContext(catalog=tiny_catalog, flags=flags)
        program = PushPipelineLowering(SCALITE_MAP_LIST).run(plan, context)
        specialized = HashTableSpecialization(SCALITE).run(program, context)
        used = ops_used(specialized)
        assert {"dense_agg_new", "dense_agg_update", "dense_agg_foreach"} <= used
        assert "hashmap_agg_new" not in used

    @pytest.mark.parametrize("access", [True, False])
    def test_unique_maps_deferred_for_five_level_stack(self, tiny_catalog, access):
        plan = Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_id"), col("s_id"))
        flags = build_config("dblab-5").flags.copy_with(catalog_access_layer=access)
        context = CompilationContext(catalog=tiny_catalog, flags=flags)
        from repro.stack import SCALITE_LIST
        program = PushPipelineLowering(SCALITE_MAP_LIST).run(plan, context)
        deferred = HashTableSpecialization(SCALITE_LIST).run(program, context)
        # the primary-key map is left, probe intact, for the list-specialization
        # lowering — as a MultiMap, or as the catalog's still unclaimed partition
        assert "mmap_get" in ops_used(deferred)
        if access:
            unclaimed = [s for s in deferred.hoisted.stmts
                         if s.expr.op == "access_partition"]
            assert len(unclaimed) == 1 and "single" not in unclaimed[0].expr.attrs
        else:
            assert "mmap_new" in ops_used(deferred)

    @pytest.mark.parametrize("config_name", ["dblab-4", "dblab-5"])
    def test_specialized_plans_agree_with_interpreter(self, tiny_catalog, config_name):
        plan = Q.Agg(
            Q.HashJoin(Q.Scan("R"), Q.Scan("S"), col("r_id"), col("s_id"),
                       kind="leftouter"),
            [("r_name", col("r_name"))],
            [Q.AggSpec("count", col("s_val"), "matched")])
        config = build_config(config_name)
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, tiny_catalog, "x")
        assert canon(compiled.run(tiny_catalog)) == canon(execute(plan, tiny_catalog))
