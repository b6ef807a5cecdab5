"""A row position is one object, and the access layer holds it once.

The layer's memory contract (``repro.storage.access`` module docstring):
every structure and memoized candidate list draws its positions from one
layer-wide pool, a partition over a clustered key is a list of ``range``
slots, and a candidate list comes from one filtered pass over the catalog's
own columns, with nothing but the list kept.  These tests pin the identity
(by ``is``), the resident bytes it buys, and that neither the ``range``
slots nor the filtered pass changed an answer.
"""
import dataclasses
import gc
import operator
import sys
import threading
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.storage.access import DirectArray, PartitionIndex, _bounds_per_column
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
        assert owners == {"key_index", "partition", "candidates"}
        assert beyond_the_small_ints > 2 * warm_catalog.size("lineitem")

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
    def test_everything_under_the_memos_fits_in_7_mb(self, warm_catalog,
                                                     catalog_object_ids):
        """25.7 MB before positions were pooled (six 2.65 MB lineitem sorted
        columns, a 3.3 MB partition of lineitem.l_orderkey); 9.1 MB while a
        sorted permutation of every filtered column stayed resident."""
        layer = warm_catalog.access_layer()
        seen = set(catalog_object_ids)
        resident = sum(deep_sizeof(memo, seen) for memo in
                       (layer._structures, layer._candidates, layer._positions))
        assert resident <= 7e6, f"{resident / 1e6:.2f} MB"

    def test_a_structure_adds_pointers_not_boxes(self, warm_catalog,
                                                 catalog_object_ids):
        """Beyond the pool and the catalog, a candidate list costs one pointer
        a position (and the spare capacity a comprehension leaves) and a
        clustered partition one pointer and one ``range`` header a key
        (3.3 MB -> 0.84 MB).  Checked where the fixed cost of the object is
        noise."""
        layer = warm_catalog.access_layer()
        shared = catalog_object_ids | set(map(id, layer._positions))
        clustered = listed = 0
        for (kind, table, column), structure in layer._structures.items():
            if structure is None or warm_catalog.size(table) < 4096:
                continue
            if kind == "partition" and type(structure.slots[0]) is range:
                clustered += 1
                added = deep_sizeof(structure, set(shared))
                assert added <= 64 * len(structure.slots), (table, column)
        for table, lists in layer._candidates.items():
            for filters, candidates in chain(lists.probation.items(),
                                             lists.resident.items()):
                if isinstance(candidates, list) and len(candidates) >= 4096:
                    listed += 1
                    added = deep_sizeof(candidates, set(shared))
                    assert added <= 10 * len(candidates), filters
        assert clustered >= 1 and listed >= 5


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
# (d) a candidate list is exactly the rows the zone filters keep
# ---------------------------------------------------------------------------
_NUMBERS = st.one_of(st.integers(-20, 20),
                     st.floats(-20, 20, allow_nan=False).map(lambda x: round(x, 1)))
_WORDS = st.text(alphabet="abc", max_size=3)
_COLUMNS = st.one_of(st.lists(_NUMBERS, min_size=1, max_size=30),
                     st.lists(_WORDS, min_size=1, max_size=30))
_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}

#: below this many rows the gate is the exact count, not a sample
EXACT_GATE_ROWS = 1024


@st.composite
def _cases(draw):
    """Two columns of up to 30 rows or of more than one 2048-row zone chunk
    (a drawn pattern tiled, stored ascending — clustered — or descending, so
    that the zone maps skip chunks), a ``None`` in a fifth of them, and 1-4
    filters over both whose literals are mostly stored values.  Comparable and
    incomparable literals alike: a string bound on a numeric column must be
    skipped (``prune_candidates`` leaves the column out)."""
    length = draw(st.one_of(st.integers(1, 30), st.integers(2049, 5000)))
    columns = {}
    for name in ("t_a", "t_b"):
        pattern = draw(_COLUMNS)
        values = (pattern * (length // len(pattern) + 1))[:length]
        layout = draw(st.sampled_from(["tiled", "ascending", "descending"]))
        if layout != "tiled":
            values.sort(reverse=layout == "descending")
        if draw(st.sampled_from([False] * 4 + [True])):
            values[draw(st.integers(0, length - 1))] = None
        columns[name] = values
    filters = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(sorted(columns)))
        stored = [value for value in columns[name] if value is not None]
        own, other = (_WORDS, _NUMBERS) if stored and isinstance(stored[0], str) \
            else (_NUMBERS, _WORDS)
        source = draw(st.sampled_from(["stored"] * 3 + ["fresh", "incomparable"]))
        if source == "stored" and stored:
            literal = draw(st.sampled_from(stored))
        else:
            literal = draw(other if source == "incomparable" else own)
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=="]
                                  + ["prefix"] * isinstance(literal, str)))
        if op == "prefix":
            literal = literal[:draw(st.integers(0, len(literal)))]
        filters.append((name, op, literal))
    return columns, filters


def _two_column_catalog(a, b):
    def column(name, values):
        words = any(isinstance(value, str) for value in values)
        return (string_column if words else float_column)(name)
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("T", [int_column("t_id"), column("t_a", a), column("t_b", b)],
                    primary_key=("t_id",)),
        {"t_id": list(range(len(a))), "t_a": a, "t_b": b}))
    return catalog


def _matching(catalog, table, filters, incomparable_fails=False):
    """The rows passing every filter on a column without ``None`` whose values
    its literals compare with, written out filter by filter; ``None`` when no
    filter is on such a column.  With ``incomparable_fails`` a literal the
    values do not compare with keeps no row instead of being skipped."""
    rows, counted = range(catalog.size(table)), False
    for column in dict.fromkeys(name for name, _, _ in filters):
        values = catalog.column(table, column)
        own = [(op, literal) for name, op, literal in filters if name == column]
        if None in values:
            continue
        if any(isinstance(literal, str) != isinstance(values[0], str)
               for _, literal in own):
            if incomparable_fails:
                rows = []
            continue
        counted = True
        rows = [row for row in rows if all(
            values[row].startswith(literal) if op == "prefix"
            else _COMPARE[op](values[row], literal) for op, literal in own)]
    return list(rows) if counted else None


def _from_the_pool(layer, positions):
    return isinstance(positions, range) or all(
        map(operator.is_, positions, map(layer._positions.__getitem__, positions)))


class TestCandidatesAreTheMatchingRows:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_cases())
    def test_prune_candidates_and_pruned_indices_against_a_full_scan(self, case):
        columns, filters = case
        length = len(columns["t_a"])
        catalog = _two_column_catalog(columns["t_a"], columns["t_b"])
        try:
            _bounds_per_column(filters)
        except TypeError:
            return  # two incomparable literals on one column never get this far
        layer = catalog.access_layer()
        expected = _matching(catalog, "T", filters)
        candidates = layer.prune_candidates("T", filters)
        if expected is None:
            assert candidates is None
        elif candidates is not None:
            assert type(candidates) in (list, range)
            assert list(candidates) == expected
            assert _from_the_pool(layer, candidates)
        if expected is not None and length < EXACT_GATE_ROWS:
            assert (candidates is None) == (len(expected) > length / 2)
        indices = layer.pruned_indices("T", tuple(filters))
        assert _from_the_pool(layer, indices)
        if candidates is not None:
            assert list(indices) == expected
        else:   # the chunks the zone maps admit, every row when they admit all
            assert list(indices) == list(chain.from_iterable(
                range(start, stop) for start, stop in layer.chunk_ranges("T", filters)))
            assert set(_matching(catalog, "T", filters, incomparable_fails=True)
                       or ()) <= set(indices)

    def test_every_warmed_list_is_its_matching_rows(self, warm_catalog):
        layer = warm_catalog.access_layer()
        pruned = 0
        for table, lists in layer._candidates.items():
            for filters, candidates in chain(lists.probation.items(),
                                             lists.resident.items()):
                if candidates == range(warm_catalog.size(table)):
                    continue  # unpruned
                assert list(candidates) == _matching(warm_catalog, table, filters)
                assert _from_the_pool(layer, candidates)
                pruned += 1
        assert pruned >= 10


# ---------------------------------------------------------------------------
# (e) the pool's lifetime: the catalog's, through reloads and races
# ---------------------------------------------------------------------------
SHIPPED_IN_1994 = (("l_shipdate", ">=", 19940101), ("l_shipdate", "<", 19950101))

FIRST_REQUESTS = [
    lambda layer: layer.pruned_indices("lineitem", SHIPPED_IN_1994),
    lambda layer: layer.partition("lineitem", "l_orderkey"),
    lambda layer: layer.key_index("orders", "o_orderkey"),
    lambda layer: layer.key_index("customer", "c_custkey"),
    lambda layer: layer.partition("orders", "o_custkey"),
    lambda layer: layer.pruned_indices("orders", (("o_totalprice", "<", 50000.0),)),
    lambda layer: layer.pruned_indices(
        "lineitem", (("l_quantity", "<", 3), ("l_discount", ">=", 0.05))),
    lambda layer: layer.key_index("nation", "n_nationkey"),
]


class TestPoolLifetime:
    def test_pool_survives_invalidate_table(self):
        catalog = generate_catalog(scale_factor=0.001, seed=3)
        layer = catalog.access_layer()
        filters = (("l_quantity", "<", 10.0),)
        before = layer.pruned_indices("lineitem", filters)
        pooled = list(layer._positions)
        catalog.register(catalog.table("lineitem"))
        after = layer.pruned_indices("lineitem", filters)
        assert after is not before and after == before
        assert isinstance(after, list)
        assert all(map(operator.is_, layer._positions, pooled))
        assert all(map(operator.is_, after, map(pooled.__getitem__, after)))

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
            # the last lineitem row shipped in 1994
            position = layer.pruned_indices("lineitem", SHIPPED_IN_1994)[-1]
            assert position >= SMALL_INT_CACHE
            # the pool, the candidate list, this frame and the argument
            assert sys.getrefcount(position) == 4
            del layer, catalog
            # this frame and getrefcount's argument: nothing else is left
            assert sys.getrefcount(position) == 2
        finally:
            gc.enable()
