"""A row position is one object, and the access layer holds it once.

The layer's memory contract (``repro.storage.access`` module docstring):
every structure and memoized candidate list draws its positions from one
layer-wide pool, a partition over a clustered key is a list of ``range``
slots, and a sorted column is a permutation over the catalog's own column.
These tests pin the identity (by ``is``), the resident bytes it buys, and
that neither the ``range`` slots nor the copy-free bisect changed an answer.
"""
import dataclasses
import gc
import operator
import sys
import threading
from bisect import bisect_left, bisect_right
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage import access
from repro.storage.access import (DirectArray, PartitionIndex, SortedColumn,
                                  _Bounds)
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import (TableSchema, float_column, int_column,
                                  string_column)
from repro.tpch.dbgen import generate_catalog

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: below this CPython hands out one cached object per value anyway
SMALL_INT_CACHE = 257


def position_sequences(layer):
    """``(owner, positions)`` for everything under the layer's memos that
    holds row positions as objects (a ``range`` holds only its two ends)."""
    for key, structure in layer._structures.items():
        if isinstance(structure, DirectArray):
            yield key, [slot for slot in structure.slots if slot is not None]
        elif isinstance(structure, PartitionIndex):
            for slot in structure.slots:
                yield key, [slot.start, slot.stop] \
                    if isinstance(slot, range) else slot
        elif isinstance(structure, SortedColumn) and not structure.identity:
            yield key, structure.permutation
    for table, lists in layer._candidates.items():
        for filters, candidates in chain(lists.probation.items(),
                                         lists.resident.items()):
            if not isinstance(candidates, range):
                yield ("candidates", table, filters), candidates


def deep_sizeof(obj, seen):
    """``sys.getsizeof`` of ``obj`` and of everything it alone keeps alive,
    each distinct object once (``seen``: ids already paid for)."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        children = chain(obj.keys(), obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = obj
    elif isinstance(obj, range):
        children = (obj.start, obj.stop, obj.step)
    elif dataclasses.is_dataclass(obj):
        children = (vars(obj),)
    else:
        children = ()
    return sys.getsizeof(obj) + sum(deep_sizeof(child, seen)
                                    for child in children)


@pytest.fixture(scope="module")
def catalog_object_ids(warm_catalog):
    """ids of the catalog's column lists and of every value in them."""
    ids = set()
    for name in warm_catalog.table_names():
        table = warm_catalog.table(name)
        for column in table.schema.column_names():
            values = table.column(column)
            ids.add(id(values))
            ids.update(map(id, values))
    return frozenset(ids)


# ---------------------------------------------------------------------------
# (a) identity: every mention of a position is the pool's object
# ---------------------------------------------------------------------------
class TestEveryPositionIsThePoolsObject:
    def test_after_warming_all_22_queries(self, warm_catalog):
        layer = warm_catalog.access_layer()
        pool = layer._positions
        assert all(map(operator.eq, pool, range(len(pool))))
        owners, beyond_the_small_ints = set(), 0
        for owner, positions in position_sequences(layer):
            assert all(map(operator.is_, positions,
                           map(pool.__getitem__, positions))), owner
            owners.add(owner[0])
            beyond_the_small_ints += sum(
                1 for position in positions if position >= SMALL_INT_CACHE)
        # every kind of holder was walked, and overwhelmingly at positions
        # the interpreter does not share by itself
        assert owners == {"key_index", "partition", "sorted_column",
                          "candidates"}
        assert beyond_the_small_ints > 5 * warm_catalog.size("lineitem")

    def test_pool_covers_the_largest_table_and_no_more_than_its_end(self, warm_catalog):
        pool = warm_catalog.access_layer()._positions
        largest = max(warm_catalog.size(name)
                      for name in warm_catalog.table_names())
        # one past the last row: the end of the last run of a clustered key
        assert largest <= len(pool) <= largest + 1


# ---------------------------------------------------------------------------
# (b) what that buys: resident bytes
# ---------------------------------------------------------------------------
class TestResidentBytes:
    def test_everything_under_the_memos_fits_in_11_mb(self, warm_catalog,
                                                      catalog_object_ids):
        """25.7 MB before positions were pooled (six 2.65 MB lineitem sorted
        columns, a 3.3 MB partition of lineitem.l_orderkey)."""
        layer = warm_catalog.access_layer()
        seen = set(catalog_object_ids)
        resident = sum(deep_sizeof(memo, seen) for memo in
                       (layer._structures, layer._candidates, layer._positions))
        assert resident <= 11e6, f"{resident / 1e6:.2f} MB"

    def test_a_structure_adds_pointers_not_boxes(self, warm_catalog,
                                                 catalog_object_ids):
        """Beyond the pool and the catalog, a permutation costs one pointer a
        row (2.65 MB -> 0.48 MB on lineitem) and a clustered partition one
        pointer and one ``range`` header a key (3.3 MB -> 0.84 MB).  Checked
        where the fixed cost of the structure object is noise."""
        layer = warm_catalog.access_layer()
        shared = catalog_object_ids | set(map(id, layer._positions))
        permutations = clustered = 0
        for (kind, table, column), structure in layer._structures.items():
            if structure is None or warm_catalog.size(table) < 4096:
                continue
            added = deep_sizeof(structure, set(shared))
            if kind == "sorted_column" and not structure.identity:
                permutations += 1
                assert structure.source is warm_catalog.column(table, column)
                assert added <= 8.5 * len(structure.source), (table, column)
            elif kind == "partition" and type(structure.slots[0]) is range:
                clustered += 1
                assert added <= 64 * len(structure.slots), (table, column)
        assert permutations >= 6 and clustered >= 1


# ---------------------------------------------------------------------------
# (c) range slots and list slots are the same partition
# ---------------------------------------------------------------------------
def _fk_catalog(num_keys, emp_keys):
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("dept", [int_column("d_id")], primary_key=("d_id",)),
        {"d_id": list(range(1, num_keys + 1))}))
    _register_emp(catalog, emp_keys)
    return catalog


def _register_emp(catalog, emp_keys):
    catalog.register(ColumnarTable(
        TableSchema("emp", [int_column("e_id"),
                            int_column("e_dept", references=("dept", "d_id"))],
                    primary_key=("e_id",)),
        {"e_id": list(range(len(emp_keys))), "e_dept": list(emp_keys)}))


def _list_slots(values, lo, hi):
    """The partition as it was always built: one append per row."""
    slots = [[] for _ in range(hi - lo + 1)]
    for position, value in enumerate(values):
        slots[value - lo].append(position)
    return slots


class TestRangeSlotsAgreeWithListSlots:
    @SETTINGS
    @given(st.integers(1, 12).flatmap(lambda num_keys: st.tuples(
        st.just(num_keys),
        st.lists(st.integers(1, num_keys), min_size=1, max_size=40))))
    def test_slot_by_slot_on_clustered_and_shuffled_keys(self, drawn):
        num_keys, keys = drawn
        for emp_keys in (sorted(keys), keys):
            catalog = _fk_catalog(num_keys, emp_keys)
            index = catalog.access_layer().partition("emp", "e_dept")
            slot_type = range if emp_keys == sorted(keys) else list
            assert all(type(slot) is slot_type for slot in index.slots)
            assert [list(slot) for slot in index.slots] == \
                _list_slots(emp_keys, 1, num_keys)
            # what generated code and the engines ask of a slot
            for slot, expected in zip(index.slots,
                                      _list_slots(emp_keys, 1, num_keys)):
                assert len(slot) == len(expected)
                assert bool(slot) == bool(expected)

    def test_empty_slots_single_rows_and_both_ends(self):
        #                  key 1 absent, 2 once, 3 thrice, 4 absent, 5 once, 6 absent
        catalog = _fk_catalog(6, [2, 3, 3, 3, 5])
        slots = catalog.access_layer().partition("emp", "e_dept").slots
        assert slots == [range(0, 0), range(0, 1), range(1, 4), range(4, 4),
                         range(4, 5), range(5, 5)]

    def test_a_column_that_stops_being_sorted_rebuilds_as_lists(self):
        catalog = _fk_catalog(4, [1, 1, 2, 4])
        layer = catalog.access_layer()
        clustered = layer.partition("emp", "e_dept")
        assert all(type(slot) is range for slot in clustered.slots)
        _register_emp(catalog, [4, 1, 2, 1])
        rebuilt = layer.partition("emp", "e_dept")
        assert rebuilt is not clustered
        assert rebuilt.slots == [[1, 3], [2], [], [0]]
        assert all(type(slot) is list for slot in rebuilt.slots)
        assert layer.build_counts[("partition", "emp", "e_dept")] == 2


# ---------------------------------------------------------------------------
# (d) bisecting the permutation equals bisecting a sorted copy
# ---------------------------------------------------------------------------
def _values_list_bisect(ordered, bounds):
    """``SortedColumn.slice_bounds`` as it was over a sorted copy."""
    start, stop = 0, len(ordered)
    if bounds.lo is not None:
        value, strict = bounds.lo
        start = bisect_right(ordered, value) if strict else \
            bisect_left(ordered, value)
    if bounds.hi is not None:
        value, strict = bounds.hi
        stop = bisect_left(ordered, value) if strict else \
            bisect_right(ordered, value)
    return start, max(start, stop)


def _outcome(function, *args):
    try:
        return function(*args)
    except TypeError:
        return TypeError


_NUMBERS = st.one_of(st.integers(-20, 20),
                     st.floats(-20, 20, allow_nan=False).map(lambda x: round(x, 1)))
_WORDS = st.text(alphabet="abc", max_size=3)
_COLUMNS = st.one_of(st.lists(_NUMBERS, min_size=1, max_size=30),
                     st.lists(_WORDS, min_size=1, max_size=30))
#: comparable and incomparable literals alike: a string bound on a numeric
#: column must fail the same way (``prune_candidates`` skips the column)
_FILTERS = st.lists(
    st.one_of(st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=="]),
                        st.one_of(_NUMBERS, _WORDS)),
              st.tuples(st.just("prefix"), _WORDS)),
    min_size=1, max_size=3)


class TestSliceBoundsNeedNoSortedCopy:
    @SETTINGS
    @given(_COLUMNS, _FILTERS)
    def test_permutation_and_identity_bisects_equal_the_values_list_bisect(
            self, values, filters):
        bounds = _Bounds()
        try:
            for op, literal in filters:
                bounds.tighten(op, literal)
        except TypeError:
            return  # two incomparable literals on one column never get this far
        ordered = sorted(values)
        expected = _outcome(_values_list_bisect, ordered, bounds)
        permutation = sorted(range(len(values)), key=values.__getitem__)
        index = SortedColumn("T", "c", values, permutation)
        assert _outcome(index.slice_bounds, bounds) == expected
        identity = SortedColumn("T", "c", ordered, range(len(ordered)),
                                identity=True)
        assert _outcome(identity.slice_bounds, bounds) == expected

    def test_through_the_layer_on_a_tpch_column(self, warm_catalog):
        index = warm_catalog.access_layer().sorted_column("lineitem",
                                                          "l_quantity")
        ordered = sorted(index.source)
        for lo, hi in ((None, None), ((24, True), None), (None, (24, False)),
                       ((10, False), (10, False)), ((60, False), None)):
            bounds = _Bounds(lo, hi)
            start, stop = index.slice_bounds(bounds)
            assert (start, stop) == _values_list_bisect(ordered, bounds)
            assert [index.source[i] for i in index.permutation[start:stop]] \
                == ordered[start:stop]


# ---------------------------------------------------------------------------
# (d') the bucketed permutation is the comparison sort's permutation
# ---------------------------------------------------------------------------
def _one_column_catalog(make_column, values):
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("T", [int_column("t_id"), make_column("t_c")],
                    primary_key=("t_id",)),
        {"t_id": list(range(len(values))), "t_c": list(values)}))
    return catalog


#: (column constructor, values drawn from a pool of ``num_distinct``): the
#: pool size against the row count puts a column on either side of
#: ``_BUCKET_ROWS_PER_VALUE``
_DUPLICATED_COLUMNS = st.integers(1, 40).flatmap(lambda num_distinct: st.one_of(
    st.tuples(st.just(int_column),
              st.lists(st.integers(-num_distinct, num_distinct // 2),
                       min_size=2, max_size=120)),
    st.tuples(st.just(float_column),
              st.lists(st.integers(0, num_distinct).map(lambda n: n / 4 - 2.0),
                       min_size=2, max_size=120)),
    st.tuples(st.just(string_column),
              st.lists(st.integers(0, num_distinct).map(lambda n: f"w{n % 7}{n}"),
                       min_size=2, max_size=120))))


class TestBucketedPermutation:
    @SETTINGS
    @given(_DUPLICATED_COLUMNS)
    def test_equals_the_stable_sort_on_both_sides_of_the_break_even(self, drawn):
        make_column, values = drawn
        catalog = _one_column_catalog(make_column, values)
        layer = catalog.access_layer()
        index = layer.sorted_column("T", "t_c")
        expected = sorted(range(len(values)), key=values.__getitem__)
        # the bucket build itself, whichever builder the layer chose below
        bucketed = list(range(len(values)))
        access._bucket_sort(bucketed, values)
        assert bucketed == expected
        if index.identity:
            assert expected == list(range(len(values)))
            return
        assert index.permutation == expected
        assert all(map(operator.is_, index.permutation,
                       map(layer._positions.__getitem__, index.permutation)))

    @pytest.mark.parametrize("rows_per_value, bucketed", [
        (access._BUCKET_ROWS_PER_VALUE - 1, False),
        (access._BUCKET_ROWS_PER_VALUE, True)])
    def test_the_choice_reads_rows_per_distinct_value(self, monkeypatch,
                                                      rows_per_value, bucketed):
        """An observed property of the column picks the builder: the same 10
        values repeated below / at the break-even."""
        values = [(7 * i) % 10 for i in range(10 * rows_per_value)]
        catalog = _one_column_catalog(int_column, values)
        sorts = []
        real_sorted = sorted

        def spy(iterable, **kwargs):
            result = real_sorted(iterable, **kwargs)
            sorts.append(len(result))
            return result

        monkeypatch.setattr(access, "sorted", spy, raising=False)
        index = catalog.access_layer().sorted_column("T", "t_c")
        # only the bucketed build sorts anything through ``sorted``: its keys
        assert sorts == ([10] if bucketed else [])
        assert index.permutation == real_sorted(range(len(values)),
                                                key=values.__getitem__)

    def test_tpch_columns_on_both_sides(self, warm_catalog):
        layer = warm_catalog.access_layer()
        for table, column in (("lineitem", "l_returnflag"), ("lineitem", "l_shipdate"),
                              ("lineitem", "l_discount"), ("orders", "o_orderdate"),
                              ("orders", "o_totalprice"), ("customer", "c_acctbal")):
            values = warm_catalog.column(table, column)
            assert layer.sorted_column(table, column).permutation == \
                sorted(range(len(values)), key=values.__getitem__), column


# ---------------------------------------------------------------------------
# (e) the pool's lifetime: the catalog's, through reloads and races
# ---------------------------------------------------------------------------
FIRST_REQUESTS = [
    lambda layer: layer.sorted_column("lineitem", "l_shipdate"),
    lambda layer: layer.partition("lineitem", "l_orderkey"),
    lambda layer: layer.key_index("orders", "o_orderkey"),
    lambda layer: layer.key_index("customer", "c_custkey"),
    lambda layer: layer.partition("orders", "o_custkey"),
    lambda layer: layer.sorted_column("orders", "o_totalprice"),
    lambda layer: layer.pruned_indices(
        "lineitem", (("l_quantity", "<", 3), ("l_discount", ">=", 0.05))),
    lambda layer: layer.key_index("nation", "n_nationkey"),
]


class TestPoolLifetime:
    def test_pool_survives_invalidate_table(self):
        catalog = generate_catalog(scale_factor=0.001, seed=3)
        layer = catalog.access_layer()
        before = layer.sorted_column("lineitem", "l_quantity")
        pooled = list(layer._positions)
        catalog.register(catalog.table("lineitem"))
        after = layer.sorted_column("lineitem", "l_quantity")
        assert after is not before
        assert all(map(operator.is_, layer._positions, pooled))
        assert all(map(operator.is_, after.permutation,
                       map(pooled.__getitem__, after.permutation)))

    @pytest.mark.timeout(60)
    def test_first_request_race_grows_one_pool_monotonically(self):
        catalog = generate_catalog(scale_factor=0.001, seed=3)
        layer = catalog.access_layer()
        sizes, errors = [], []
        done = threading.Event()
        barrier = threading.Barrier(len(FIRST_REQUESTS))

        def first_request(request):
            try:
                barrier.wait(timeout=30)
                request(layer)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def watch():
            while not done.is_set():
                sizes.append(len(layer._positions))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher = threading.Thread(target=watch)
            workers = [threading.Thread(target=first_request, args=(request,))
                       for request in FIRST_REQUESTS]
            watcher.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=50)
            done.set()
            watcher.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers) and not watcher.is_alive()
        assert errors == []
        assert sizes == sorted(sizes)
        pool = layer._positions
        assert all(map(operator.eq, pool, range(len(pool))))
        assert len(pool) == catalog.size("lineitem") + 1
        for owner, positions in position_sequences(layer):
            assert all(map(operator.is_, positions,
                           map(pool.__getitem__, positions))), owner
        assert all(count == 1 for count in layer.build_counts.values())

    def test_pool_dies_with_the_catalog_without_a_gc_pass(self):
        gc.collect()
        gc.disable()
        try:
            catalog = generate_catalog(scale_factor=0.001, seed=3)
            layer = catalog.access_layer()
            for request in FIRST_REQUESTS:
                request(layer)
            position = layer._positions[-2]          # the last lineitem row
            assert position >= SMALL_INT_CACHE
            # the pool and every structure over lineitem mention it
            assert sys.getrefcount(position) > 4
            del layer, catalog
            # this frame and getrefcount's argument: nothing else is left
            assert sys.getrefcount(position) == 2
        finally:
            gc.enable()
