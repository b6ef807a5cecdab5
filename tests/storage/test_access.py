"""Unit tests for the physical access layer (repro.storage.access)."""
import threading
from itertools import chain

import pytest

from repro.codegen.runtime import catalog_pruned_indices
from repro.dsl.expr import col, date, in_list, like, lit
from repro.dsl.expr_compile import compile_columnar_predicate, compile_row
from repro.storage import access
from repro.storage.access import (AccessLayer, DirectArray,
                                  PartitionIndex, extract_zone_filters,
                                  rewrite_string_predicates)
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import (TableSchema, float_column, int_column,
                                  string_column)
from repro.storage.statistics import ColumnStatistics


def _column_statistics(values):
    """The statistics of one column, read on the first field read."""
    return ColumnStatistics("c", num_rows=len(values), read=lambda: values)


def _catalog(rows=None):
    """R: dense PK; S: sparse unique id; values cover strings and floats."""
    catalog = Catalog()
    r_schema = TableSchema("R", [int_column("r_id"), string_column("r_tag"),
                                 float_column("r_val")], primary_key=("r_id",))
    s_schema = TableSchema("S", [int_column("s_id"), int_column("s_rid")],
                           primary_key=("s_id",))
    catalog.register(ColumnarTable(r_schema, {
        "r_id": [10, 11, 12, 13, 14],
        "r_tag": ["beta", "alpha", "beta", "gamma", "alpha"],
        "r_val": [5.0, 1.0, 3.0, 2.0, 4.0],
    }))
    catalog.register(ColumnarTable(s_schema, {
        "s_id": [7, 900000, 12],          # unique but far from dense
        "s_rid": [10, 12, 99],
    }))
    return catalog


class TestKeyIndex:
    def test_dense_key_gets_a_direct_array(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        index = layer.key_index("R", "r_id")
        assert isinstance(index, DirectArray)
        assert index.lookup(10) == 0
        assert index.lookup(14) == 4
        assert index.lookup(15) is None
        assert index.lookup(9) is None

    def test_direct_array_matches_hash_key_semantics(self):
        catalog = _catalog()
        index = catalog.access_layer().key_index("R", "r_id")
        # a float that equals an int key must match, like a dict lookup would
        assert index.lookup(12.0) == 2
        assert index.lookup(12.5) is None
        assert index.lookup("12") is None

    def test_sparse_unique_key_has_no_index(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        assert layer.key_index("S", "s_id") is None
        assert ("key_index", "S", "s_id") not in layer.build_counts

    def test_non_unique_column_has_no_index(self):
        catalog = _catalog()
        assert catalog.access_layer().key_index("R", "r_tag") is None

    def test_built_once_and_memoized(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        first = layer.key_index("R", "r_id")
        for _ in range(3):
            assert layer.key_index("R", "r_id") is first
        assert layer.build_counts[("key_index", "R", "r_id")] == 1
        # the layer itself is memoized on the catalog
        assert AccessLayer.for_catalog(catalog) is layer
        assert catalog.access_layer() is layer


def _fk_catalog(dept_ids=(1, 2, 3, 4), emp_depts=(3, 1, 3, 4, 1)):
    """dept(d_id PK) <- emp(e_dept FK): department 2 has no employee."""
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("dept", [int_column("d_id")], primary_key=("d_id",)),
        {"d_id": list(dept_ids)}))
    catalog.register(ColumnarTable(
        TableSchema("emp", [int_column("e_id"),
                            int_column("e_dept", references=("dept", "d_id"))],
                    primary_key=("e_id",)),
        {"e_id": list(range(10, 10 + len(emp_depts))),
         "e_dept": list(emp_depts)}))
    return catalog


class TestPartitionIndex:
    def test_positions_ascend_per_key_of_the_referenced_domain(self):
        catalog = _fk_catalog()
        index = catalog.access_layer().partition("emp", "e_dept")
        assert isinstance(index, PartitionIndex)
        assert index.offset == 1
        # one slot per department, the empty one included
        assert index.slots == [[1, 4], [], [0, 2], [3]]

    def test_domain_is_decided_from_statistics_without_building(self):
        catalog = _fk_catalog()
        layer = catalog.access_layer()
        assert layer.partition_domain("emp", "e_dept") == (1, 4)
        assert layer.partition_domain("dept", "d_id") == (1, 4)
        assert layer.build_counts == {}

    def test_unpartitionable_columns(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        assert layer.partition_domain("R", "r_tag") is None     # strings
        assert layer.partition_domain("S", "s_id") is None      # sparse
        assert layer.partition("S", "s_id") is None
        assert layer.partition_domain("R", "no_such") is None
        assert layer.build_counts == {}

    def test_dangling_reference_is_not_partitioned(self):
        """A value outside the referenced key range would index out of the
        slot array of a probe that elided its bounds check."""
        catalog = _fk_catalog(emp_depts=(3, 1, 9))
        assert catalog.access_layer().partition("emp", "e_dept") is None

    def test_built_once_and_dropped_with_its_table(self):
        catalog = _fk_catalog()
        layer = catalog.access_layer()
        first = layer.partition("emp", "e_dept")
        assert layer.partition("emp", "e_dept") is first
        assert layer.build_counts[("partition", "emp", "e_dept")] == 1
        catalog.register(catalog.table("dept"))     # another table: kept
        assert layer.partition("emp", "e_dept") is first
        catalog.register(catalog.table("emp"))
        assert layer.partition("emp", "e_dept") is not first
        assert layer.build_counts[("partition", "emp", "e_dept")] == 2

    def test_rebuilt_when_the_referenced_domain_moves(self):
        """Reloading the *referenced* table with another key range leaves
        the memo of the referencing table in place but no longer valid."""
        catalog = _fk_catalog()
        layer = catalog.access_layer()
        assert len(layer.partition("emp", "e_dept").slots) == 4
        dept = catalog.table("dept")
        catalog.register(ColumnarTable(dept.schema, {"d_id": [0, 1, 2, 3, 4, 5]}))
        index = layer.partition("emp", "e_dept")
        assert (index.offset, len(index.slots)) == (0, 6)
        assert index.slots[3] == [0, 2]
        assert layer.build_counts[("partition", "emp", "e_dept")] == 2

    def test_unique_key_index_is_not_disturbed(self):
        """Partitions share the structure memo; the two never collide."""
        catalog = _fk_catalog()
        layer = catalog.access_layer()
        partition = layer.partition("dept", "d_id")
        index = layer.key_index("dept", "d_id")
        assert isinstance(index, DirectArray) and index.slots == [0, 1, 2, 3]
        # d_id is stored ascending, so the slots are ranges, not lists
        assert [list(slot) for slot in partition.slots] == [[0], [1], [2], [3]]
        assert layer.partition("dept", "d_id") is partition
        assert layer.key_index("dept", "d_id") is index


class TestStringDictionary:
    def test_codes_follow_sorted_value_order(self):
        catalog = _catalog()
        dictionary = catalog.access_layer().dictionary("R", "r_tag")
        assert dictionary.values == ["alpha", "beta", "gamma"]
        assert dictionary.codes == [1, 0, 1, 2, 0]
        assert dictionary.code("gamma") == 2
        assert dictionary.code("delta") is None

    def test_prefix_code_range(self):
        catalog = _catalog()
        dictionary = catalog.access_layer().dictionary("R", "r_tag")
        lo, hi = dictionary.prefix_code_range("a")
        assert (lo, hi) == (0, 1)
        assert dictionary.prefix_code_range("x") == (3, 3)

    def test_a_prefix_keeps_strings_past_the_largest_code_point(self):
        """The upper bound of ``LIKE 'a%'`` is the prefix's successor ``'b'``,
        not ``'a' + U+10FFFF``, which ``'a\U0010ffffz'`` sorts above; a
        prefix of U+10FFFF characters only has no upper bound."""
        values = ["ab", "a\U0010ffffz", "b", "c", "d", "e"] * 3
        catalog = Catalog()
        catalog.register(ColumnarTable(
            TableSchema("T", [int_column("t_id"), string_column("t_s")],
                        primary_key=("t_id",)),
            {"t_id": list(range(len(values))), "t_s": values}))
        layer = catalog.access_layer()
        dictionary = layer.dictionary("T", "t_s")
        assert dictionary.prefix_code_range("a") == (0, 2)
        assert dictionary.prefix_code_range("a\U0010ffff") == (1, 2)
        assert dictionary.prefix_code_range("\U0010ffff") == (6, 6)
        assert list(layer.pruned_indices("T", (("t_s", "prefix", "a"),))) == \
            [i for i, value in enumerate(values) if value.startswith("a")]

    def test_almost_unique_column_is_not_encoded(self):
        catalog = Catalog()
        schema = TableSchema("T", [int_column("t_id"), string_column("t_s")],
                             primary_key=("t_id",))
        catalog.register(ColumnarTable(schema, {
            "t_id": [1, 2, 3],
            "t_s": ["a", "b", "c"],    # every value distinct
        }))
        assert catalog.access_layer().dictionary("T", "t_s") is None

    def test_non_string_column_is_not_encoded(self):
        catalog = _catalog()
        assert catalog.access_layer().dictionary("R", "r_val") is None
        # a string column holding a None (or any other non-string) is not
        # encoded either; the same column without it is
        schema = TableSchema("T", [int_column("t_id"), string_column("t_s")],
                             primary_key=("t_id",))
        words = ["a", "b", "a", "b", "a", "b", "a", "b"]
        for column, encoded in ((words, True), (words[:3] + [None] + words[4:], False),
                                (words[:3] + [7] + words[4:], False)):
            catalog.register(ColumnarTable(schema, {
                "t_id": list(range(len(column))), "t_s": column}))
            dictionary = catalog.access_layer().dictionary("T", "t_s")
            assert (dictionary is not None) == encoded, column


class TestCandidateLists:
    def test_unsorted_column_gets_a_list_from_the_pool(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        candidates = layer.prune_candidates("R", [("r_val", "<=", 2.0)])
        assert candidates == [1, 3]                      # 1.0 and 2.0
        assert all(c is layer._positions[c] for c in candidates)
        assert layer.build_counts == {}                  # nothing resident built

    def test_sorted_column_clips_to_a_range(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        assert layer.prune_candidates("R", [("r_id", ">", 12)]) == range(3, 5)
        # a second filter that keeps every clipped row leaves the range a range
        assert layer.prune_candidates(
            "R", [("r_id", ">", 12), ("r_val", "<", 9.0)]) == range(3, 5)
        assert layer.prune_candidates(
            "R", [("r_id", ">", 12), ("r_val", "<", 3.0)]) == [3]

    def test_a_column_with_an_incomparable_literal_is_left_out(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        # the lower bound alone would keep no row; the string upper bound
        # makes the whole column unusable, so nothing prunes
        assert layer.prune_candidates(
            "R", [("r_val", ">", 100.0), ("r_val", "<", "z")]) is None

    def _long_catalog(self):
        n = 8192
        catalog = Catalog()
        schema = TableSchema("L", [int_column("l_id"), int_column("l_mod"),
                                   int_column("l_down")], primary_key=("l_id",))
        catalog.register(ColumnarTable(schema, {
            "l_id": list(range(n)),                  # clustered
            "l_mod": [i % 10 for i in range(n)],     # every tenth row per value
            "l_down": list(range(n, 0, -1)),         # unclustered (descending)
        }))
        return catalog, n

    def test_the_pass_stays_inside_the_clustered_range(self):
        catalog, n = self._long_catalog()
        candidates = catalog.access_layer().prune_candidates(
            "L", [("l_id", ">=", 3000), ("l_mod", "==", 0)])
        assert candidates == list(range(3000, n, 10))

    def test_an_incomparable_literal_leaves_the_column_out_of_the_pass(self):
        """``l_down``'s lower bound alone keeps the first 2047 rows, but its
        other literal leaves the column out: only ``l_mod`` narrows."""
        catalog, n = self._long_catalog()
        candidates = catalog.access_layer().prune_candidates(
            "L", [("l_mod", "==", 0), ("l_down", ">", n - 2048), ("l_down", "<", "z")])
        assert candidates == list(range(0, n, 10))

    @staticmethod
    def _rows_read(monkeypatch):
        """Count the positions the filtered passes read."""
        read = []

        def counting(positions, tests):
            positions = list(positions)
            read.append(len(positions))
            return passing(positions, tests)
        passing = access._passing
        monkeypatch.setattr(access, "_passing", counting)
        return read

    @pytest.mark.parametrize("filters, span", [
        ([("l_mod", "<", 9)], 8192),                         # 90 % of the rows
        ([("l_down", ">", 1000)], 8192),                     # 88 %
        ([("l_id", ">=", 2048), ("l_mod", "<", 9)], 6144),   # 90 % of the clip
    ])
    def test_an_unselective_filter_costs_a_sample_not_a_pass(self, monkeypatch,
                                                             filters, span):
        catalog, n = self._long_catalog()
        read = self._rows_read(monkeypatch)
        assert catalog.access_layer().prune_candidates("L", filters) is None
        assert read == [span // access._SAMPLE_STRIDE]

    def test_a_selective_filter_passes_the_range_after_the_sample(
            self, monkeypatch):
        catalog, n = self._long_catalog()
        read = self._rows_read(monkeypatch)
        candidates = catalog.access_layer().prune_candidates(
            "L", [("l_down", ">", n - 100)])
        assert candidates == list(range(100))
        # the sample, then one pass over the whole (unclipped) range
        assert read == [n // access._SAMPLE_STRIDE, n]

    def test_a_clip_keeping_more_than_the_fraction_is_not_a_candidate_list(self):
        """The clustered clip of ``l_id`` keeps rows up to
        ``_MAX_PRUNE_FRACTION`` of the table, not one more."""
        catalog, n = self._long_catalog()
        layer = catalog.access_layer()
        assert access._MAX_PRUNE_FRACTION == 0.5
        half = int(access._MAX_PRUNE_FRACTION * n)
        assert layer.prune_candidates("L", [("l_id", "<", half)]) == range(half)
        assert layer.prune_candidates("L", [("l_id", "<", half + 1)]) is None

    def test_a_sampled_filter_keeping_more_than_the_fraction_is_not_a_list(self):
        """The same bound on the sampled path: the unclustered ``l_down``
        keeps half the rows (and half the sample) under ``> n / 2``, a list,
        and one sampled row more under ``> n / 2 - 1``, none."""
        catalog, n = self._long_catalog()
        layer = catalog.access_layer()
        half = int(access._MAX_PRUNE_FRACTION * n)
        assert layer.prune_candidates("L", [("l_down", ">", half)]) == list(range(half))
        assert layer.prune_candidates("L", [("l_down", ">", half - 1)]) is None

    def test_a_clustered_filter_alone_is_bisected_without_a_pass(self, monkeypatch):
        catalog, n = self._long_catalog()
        read = self._rows_read(monkeypatch)
        assert catalog.access_layer().prune_candidates(
            "L", [("l_id", "<", 1000)]) == range(1000)
        assert read == []


class TestZoneFilterExtraction:
    def test_range_equality_and_prefix_conjuncts(self):
        predicate = ((col("r_val") > 2.0) & (col("r_tag") == "beta")
                     & like(col("r_tag"), "be%") & (lit(3.0) >= col("r_val")))
        filters = extract_zone_filters(predicate, ["r_val", "r_tag"])
        assert ("r_val", ">", 2.0) in filters
        assert ("r_tag", "==", "beta") in filters
        assert ("r_tag", "prefix", "be") in filters
        # literal-on-the-left comparisons are flipped onto the column
        assert ("r_val", "<=", 3.0) in filters

    def test_unprunable_conjuncts_are_ignored(self):
        predicate = ((col("a") < col("b"))               # column/column
                     & ((col("a") > 1) | (col("b") > 2))  # disjunction
                     & in_list(col("a"), [1, 2])          # IN list
                     & (col("c") > 5))                    # unknown column
        assert extract_zone_filters(predicate, ["a", "b"]) == ()


class TestPruning:
    def test_candidates_are_ascending_and_cover_all_matches(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        candidates = layer.prune_candidates("R", [("r_val", ">", 3.5)])
        assert list(candidates) == sorted(candidates)
        assert set(candidates) == {0, 4}      # 5.0 and 4.0

    def test_equality_on_strings_prunes(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        candidates = layer.prune_candidates("R", [("r_tag", "==", "gamma")])
        assert list(candidates) == [3]

    def test_unselective_range_returns_none(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        assert layer.prune_candidates("R", [("r_val", ">", 0.0)]) is None

    def test_combined_bounds_on_one_column(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        candidates = layer.prune_candidates(
            "R", [("r_val", ">=", 2.0), ("r_val", "<", 4.0)])
        assert set(candidates) == {2, 3}      # 3.0 and 2.0

    def test_pruned_indices_is_memoized(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        first = layer.pruned_indices("R", (("r_val", ">", 3.5),))
        assert layer.pruned_indices("R", (("r_val", ">", 3.5),)) is first

    def test_generated_code_helper_falls_back_to_every_row(self):
        catalog = _catalog()
        rows = catalog_pruned_indices(catalog, "R", ())
        assert list(rows) == [0, 1, 2, 3, 4]


class TestDictionaryRewrite:
    def _rewrite(self, predicate):
        catalog = _catalog()
        layer = catalog.access_layer()
        schema = catalog.schema.table("R")
        rewritten, extra = rewrite_string_predicates(
            predicate, "R", schema.columns, layer)
        return catalog, rewritten, extra

    def _equivalent(self, predicate):
        """The rewritten predicate selects exactly the same rows."""
        catalog, rewritten, extra = self._rewrite(predicate)
        table = catalog.table("R")
        columns = {name: table.column(name) for name in table.columns}
        columns.update(extra)
        reference = compile_row(predicate)
        expected = [i for i in range(table.num_rows)
                    if reference({name: table.column(name)[i] for name in table.columns})]
        actual = compile_columnar_predicate(rewritten)(
            columns, range(table.num_rows))
        assert list(actual) == expected
        return rewritten, extra

    def test_equality_becomes_code_comparison(self):
        rewritten, extra = self._equivalent(col("r_tag") == "beta")
        assert "r_tag#dict" in extra
        assert repr(rewritten) != repr(col("r_tag") == "beta")

    def test_absent_value_folds_to_false(self):
        _, rewritten, extra = self._rewrite(col("r_tag") == "nope")
        assert not extra
        assert repr(rewritten) == "Lit(False)"

    def test_inequality_in_list_and_prefix(self):
        self._equivalent(col("r_tag") != "alpha")
        self._equivalent(in_list(col("r_tag"), ["alpha", "gamma", "nope"]))
        self._equivalent(like(col("r_tag"), "be%"))
        self._equivalent((col("r_tag") == "alpha") & (col("r_val") > 2.0))

    def test_non_string_predicates_pass_through(self):
        _, rewritten, extra = self._rewrite(col("r_val") > 2.0)
        assert not extra
        assert rewritten is not None


class TestWarmLoading:
    def test_warm_access_paths_builds_pk_indices_only(self):
        from repro.storage.loader import warm_access_paths
        catalog = _catalog()
        warm_access_paths(catalog)
        layer = catalog.access_layer()
        assert layer.build_counts[("key_index", "R", "r_id")] == 1
        # S's key is unique but sparse: no direct array, nothing built
        assert ("key_index", "S", "s_id") not in layer.build_counts
        # a dictionary waits for the first request that reads it
        assert list(layer.build_counts) == [("key_index", "R", "r_id")]
        assert layer.dictionary("R", "r_tag") is not None
        # warming twice never rebuilds
        warm_access_paths(catalog)
        assert layer.build_counts[("key_index", "R", "r_id")] == 1
        assert layer.build_counts[("dictionary", "R", "r_tag")] == 1


class TestNearUniqueColumns:
    """One rule decides that a string column is too close to unique for a
    dictionary: the access layer and the compiled stacks' dictionary pass
    both ask ``ColumnStatistics.is_near_unique``."""

    def _catalog(self, tags):
        catalog = Catalog()
        schema = TableSchema("T", [int_column("t_id"), string_column("t_tag")],
                             primary_key=("t_id",))
        catalog.register(ColumnarTable(schema, {
            "t_id": list(range(len(tags))), "t_tag": list(tags)}))
        return catalog

    def test_more_than_four_in_five_distinct_gets_no_dictionary(self):
        # 9 of 10 distinct: below unique, above the near-unique share
        catalog = self._catalog([f"v{i}" for i in range(9)] + ["v0"])
        assert catalog.statistics.column("T", "t_tag").is_near_unique
        assert catalog.access_layer().dictionary("T", "t_tag") is None
        assert ("dictionary", "T", "t_tag") not in \
            catalog.access_layer().build_counts

    def test_four_in_five_distinct_still_gets_one(self):
        catalog = self._catalog([f"v{i}" for i in range(8)] + ["v0", "v1"])
        assert not catalog.statistics.column("T", "t_tag").is_near_unique
        assert catalog.access_layer().dictionary("T", "t_tag") is not None

    def test_an_empty_column_is_not_near_unique(self):
        assert not self._catalog([]).statistics.column("T", "t_tag").is_near_unique


class TestReloadInvalidation:
    def test_reregistering_a_table_invalidates_its_structures(self):
        catalog = _catalog()
        layer = catalog.access_layer()
        stale_index = layer.key_index("R", "r_id")
        stale_candidates = layer.pruned_indices("R", (("r_val", ">", 3.5),))
        assert stale_index.lookup(10) == 0
        assert set(stale_candidates) == {0, 4}
        # reload R with shifted keys and different values
        schema = catalog.schema.table("R")
        catalog.register(ColumnarTable(schema, {
            "r_id": [20, 21, 22],
            "r_tag": ["x", "x", "y"],
            "r_val": [9.0, 1.0, 1.0],
        }))
        index = layer.key_index("R", "r_id")
        assert index is not stale_index
        assert index.lookup(10) is None
        assert index.lookup(20) == 0
        assert set(layer.pruned_indices("R", (("r_val", ">", 3.5),))) == {0}
        # untouched tables keep their memoized structures
        stale_dictionary = layer.dictionary("R", "r_tag")
        catalog.register(catalog.table("S"))
        assert layer.dictionary("R", "r_tag") is stale_dictionary

    def test_index_join_sees_reloaded_data(self):
        from repro.dsl.qplan import HashJoin, IndexJoin, Scan
        catalog = _catalog()
        volcano = __import__("repro.engine.volcano", fromlist=["VolcanoEngine"])
        engine = volcano.VolcanoEngine(catalog)
        index_plan = IndexJoin(Scan("R"), Scan("S"), col("r_id"), col("s_rid"),
                               index_table="R", index_column="r_id")
        hash_plan = HashJoin(Scan("R"), Scan("S"), col("r_id"), col("s_rid"))
        assert engine.execute(index_plan) == engine.execute(hash_plan)
        schema = catalog.schema.table("R")
        catalog.register(ColumnarTable(schema, {
            "r_id": [12, 10, 99],
            "r_tag": ["n1", "n2", "n3"],
            "r_val": [1.0, 2.0, 3.0],
        }))
        assert engine.execute(index_plan) == engine.execute(hash_plan)


class TestStatisticsLoadPass:
    def test_min_max_and_sortedness_are_collected_at_load(self):
        catalog = _catalog()
        stats = catalog.statistics.column("R", "r_id")
        assert stats.sorted_ascending
        assert stats.is_unique
        assert (stats.min_value, stats.max_value) == (10, 14)
        val = catalog.statistics.column("R", "r_val")
        assert not val.sorted_ascending
        assert (val.min_value, val.max_value) == (1.0, 5.0)

    def test_nulls_are_counted_in_the_load_pass(self):
        assert _column_statistics([3, 1, 2, 1]).num_nulls == 0
        nulls = _column_statistics([None, "a", None, "b", None])
        assert nulls.num_nulls == 3 and nulls.num_distinct == 3
        assert nulls.min_value is None      # None among strings: no order
        assert _column_statistics([None, None]).num_nulls == 2
        # 0 / 0.0 / False / "" are values, not NULLs
        assert _column_statistics([0, 0.0, False]).num_nulls == 0
        assert _column_statistics(["", "x"]).num_nulls == 0

    def test_columns_by_name_merges_tables(self):
        catalog = _catalog()
        merged = catalog.statistics.columns_by_name()
        assert merged["r_id"].num_distinct == 5
        assert merged["s_id"].num_distinct == 3

    def test_date_range_still_interpolates_in_the_estimator(self):
        # the estimator consumes the same load-time min/max the pruning uses
        from repro.planner.cardinality import CardinalityEstimator
        from repro.dsl.qplan import Scan, Select
        catalog = _catalog()
        estimator = CardinalityEstimator(catalog)
        selective = estimator.estimate_rows(
            Select(Scan("R"), col("r_val") > 4.5))
        broad = estimator.estimate_rows(Select(Scan("R"), col("r_val") > 1.5))
        assert selective < broad


def test_date_literals_prune_like_integers():
    """Date columns are stored as ints; date() literals prune directly."""
    catalog = Catalog()
    schema = TableSchema("T", [int_column("t_id"), int_column("t_date")],
                         primary_key=("t_id",))
    catalog.register(ColumnarTable(schema, {
        "t_id": [1, 2, 3, 4],
        "t_date": [19940105, 19950215, 19930301, 19940620],
    }))
    filters = extract_zone_filters(
        (col("t_date") >= date("1994-01-01")) & (col("t_date") < date("1995-01-01")),
        ["t_date"])
    candidates = catalog.access_layer().prune_candidates("T", filters)
    assert set(candidates) == {0, 3}


class TestMultiColumnIntersection:
    """Conjunctive filters on several sorted/unsorted columns intersect their
    surviving row sets — regression for the single-best-column pruning that
    ignored every other conjunct."""

    def _two_column_catalog(self):
        catalog = Catalog()
        schema = TableSchema("M", [int_column("m_id"), int_column("m_a"),
                                   int_column("m_b")], primary_key=("m_id",))
        n = 4000
        catalog.register(ColumnarTable(schema, {
            "m_id": list(range(n)),
            # two interleaved sawtooth columns: each range filter alone keeps
            # a big scattered slice, their conjunction keeps a small one
            "m_a": [i % 100 for i in range(n)],
            "m_b": [(i * 7) % 100 for i in range(n)],
        }))
        return catalog

    def test_conjunction_keeps_fewer_candidates_than_either_filter(self):
        catalog = self._two_column_catalog()
        layer = catalog.access_layer()
        only_a = [("m_a", "<", 30)]
        only_b = [("m_b", "<", 30)]
        both = only_a + only_b
        a_rows = set(layer.prune_candidates("M", only_a))
        b_rows = set(layer.prune_candidates("M", only_b))
        both_rows = layer.prune_candidates("M", both)
        assert set(both_rows) == a_rows & b_rows
        assert len(both_rows) < len(a_rows) and len(both_rows) < len(b_rows)
        assert list(both_rows) == sorted(both_rows)

    def test_pruned_indices_intersects_too(self):
        catalog = self._two_column_catalog()
        layer = catalog.access_layer()
        both = (("m_a", "<", 30), ("m_b", "<", 30))
        survivors = list(layer.pruned_indices("M", both))
        # every candidate satisfies both bounds and nothing satisfying both
        # was dropped (superset check against a full scan)
        catalog = self._two_column_catalog()
        a, b = catalog.column("M", "m_a"), catalog.column("M", "m_b")
        expected = [i for i in range(len(a)) if a[i] < 30 and b[i] < 30]
        assert [i for i in survivors if a[i] < 30 and b[i] < 30] == expected
        assert set(expected) <= set(survivors)

    def test_sorted_slice_intersects_with_other_columns_filters(self):
        """A sorted column's candidate slice is further cut by the filter of
        a second, unsorted column."""
        catalog = Catalog()
        schema = TableSchema("Z", [int_column("z_sorted"), int_column("z_zoned")],
                             primary_key=("z_sorted",))
        n = 8192
        catalog.register(ColumnarTable(schema, {
            "z_sorted": list(range(n)),          # stored sorted: identity index
            "z_zoned": [i // 2048 for i in range(n)],  # constant per chunk
        }))
        layer = catalog.access_layer()
        filters = (("z_sorted", "<", 3000), ("z_zoned", "==", 0))
        survivors = list(layer.pruned_indices("Z", filters))
        # the sorted slice alone keeps [0, 3000); the rows from 2048 on
        # (z_zoned == 1) fail the second column's filter
        assert survivors == list(range(2048))


#: rows of the table the candidate-memo tests prune
B_ROWS = 1000


def _b_catalog():
    catalog = Catalog()
    schema = TableSchema("B", [int_column("b_id"), int_column("b_val")],
                         primary_key=("b_id",))
    catalog.register(ColumnarTable(schema, {
        "b_id": list(range(B_ROWS)),                       # clustered
        "b_val": [(i * 37) % B_ROWS for i in range(B_ROWS)],
    }))
    return catalog


def _b_positions_held(layer):
    lists = layer._candidates["B"]
    return sum(len(candidates) for candidates in chain(
        lists.probation.values(), lists.resident.values())
        if not isinstance(candidates, range))


class TestCandidateBudget:
    """The candidate memo is bounded by the positions it holds — a multiple
    of the table's row count — and sheds its oldest entries, never all."""

    def test_repeated_lists_stay_within_the_budget(self):
        catalog = _b_catalog()
        layer = catalog.access_layer()
        budget = AccessLayer._CANDIDATE_POSITION_BUDGET * B_ROWS
        keys = [(("b_val", "<", bound),) for bound in range(100, 500, 10)]
        for made, key in enumerate(keys, 1):
            newest = layer.pruned_indices("B", key)
            assert len(newest) == key[0][2]
            assert _b_positions_held(layer) <= budget
            # the list just made is served, not shed, and its second ask
            # makes it resident
            assert layer.pruned_indices("B", key) is newest
            resident = layer._candidates["B"].resident
            # and what is kept is the newest run of what was asked for
            assert list(resident) == keys[made - len(resident):made]
        resident = layer._candidates["B"].resident
        assert 100 + 110 + 120 < budget < sum(key[0][2] for key in keys)
        assert keys[0] not in resident
        assert len(resident) > 1   # shed from the old end, not cleared

    def test_a_range_holds_no_positions(self):
        catalog = _b_catalog()
        layer = catalog.access_layer()
        keys = [(("b_val", "<", 400),)] + \
            [(("b_id", "<", bound),) for bound in range(1, 300)]
        kept = []
        for key in keys:   # each asked for twice: the second ask promotes
            kept.append(layer.pruned_indices("B", key))
            assert layer.pruned_indices("B", key) is kept[-1]
        assert all(type(candidates) is range for candidates in kept[1:])
        assert layer.pruned_indices("B", keys[0]) is kept[0]
        assert len(layer._candidates["B"].resident) == 300


class TestCandidateProbation:
    """A candidate list earns residence by being asked for twice: a list a
    plan asks for once waits in a bounded probation segment and is shed
    from there, never from the lists that repeat."""

    def test_a_second_ask_promotes_without_recomputing(self):
        catalog = _b_catalog()
        layer = catalog.access_layer()
        key = (("b_val", "<", 300),)
        first = layer.pruned_indices("B", key)
        lists = layer._candidates["B"]
        assert key in lists.probation and not lists.resident
        assert layer.pruned_indices("B", key) is first
        assert key in lists.resident and not lists.probation
        assert layer.pruned_indices("B", key) is first

    def test_one_shot_lists_are_never_promoted_and_never_shed_residents(self):
        from repro.storage.derived import PROBATION
        catalog = _b_catalog()
        layer = catalog.access_layer()
        warm = (("b_val", "<", 400),)
        kept = layer.pruned_indices("B", warm)
        layer.pruned_indices("B", warm)
        lists = layer._candidates["B"]
        # small one-shots: probation is bounded by its count
        for bound in range(1, 1 + 3 * PROBATION):
            layer.pruned_indices("B", (("b_val", "<", bound),))
        assert len(lists.probation) == PROBATION
        assert list(lists.probation)[0] == (("b_val", "<", 1 + 2 * PROBATION),)
        # large one-shots: probation gives way to the position budget
        for bound in range(450, 500):
            layer.pruned_indices("B", (("b_val", "<", bound),))
        assert list(lists.probation)[-1] == (("b_val", "<", 499),)
        assert list(lists.resident) == [warm] and lists.resident[warm] is kept
        assert _b_positions_held(layer) <= \
            AccessLayer._CANDIDATE_POSITION_BUDGET * B_ROWS

    def test_a_warm_query_computes_its_lists_once(self):
        from repro.robustness.fallback import HardenedExecutor
        from repro.tpch.dbgen import generate_catalog
        from repro.tpch.queries import build_query
        catalog = generate_catalog(scale_factor=0.001, seed=3)
        executor = HardenedExecutor(catalog)
        executor.warm(build_query("Q6"), "Q6")       # first ask: prepare
        lists = catalog.access_layer()._candidates["lineitem"]
        (key, first), = lists.probation.items()
        executor.execute(build_query("Q6"), "Q6")    # the first request
        assert lists.resident == {key: first} and not lists.probation


class TestThunderingHerd:
    """The build-once claim must hold under real thread contention: the
    memo locks added for the concurrency contract (``_CREATE_LOCK`` for the
    layer itself, the instance ``_lock`` for each structure memo) are
    exactly what these barriers hammer."""

    THREADS = 16

    def _herd(self, work):
        barrier = threading.Barrier(self.THREADS)
        results = [None] * self.THREADS
        errors = []

        def run(slot):
            try:
                barrier.wait()
                results[slot] = work()
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(slot,))
                   for slot in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return results

    def test_for_catalog_builds_exactly_one_layer(self):
        catalog = _catalog()
        layers = self._herd(lambda: AccessLayer.for_catalog(catalog))
        assert all(layer is layers[0] for layer in layers)
        assert AccessLayer.for_catalog(catalog) is layers[0]

    def test_each_structure_builds_exactly_once_under_contention(self):
        catalog = _catalog()
        layer = AccessLayer.for_catalog(catalog)
        results = self._herd(lambda: (layer.key_index("R", "r_id"),
                                      layer.dictionary("R", "r_tag")))
        indices = {id(index) for index, _ in results}
        dictionaries = {id(dictionary) for _, dictionary in results}
        assert len(indices) == 1 and len(dictionaries) == 1
        assert layer.build_counts[("key_index", "R", "r_id")] == 1
        assert layer.build_counts[("dictionary", "R", "r_tag")] == 1

    def test_partition_builds_exactly_once_under_contention(self):
        catalog = _fk_catalog()
        layer = AccessLayer.for_catalog(catalog)
        partitions = self._herd(lambda: layer.partition("emp", "e_dept"))
        assert all(partition is partitions[0] for partition in partitions)
        assert layer.build_counts[("partition", "emp", "e_dept")] == 1
