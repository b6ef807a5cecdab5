"""An aggregate folds inline, and pipeline breakers store no record per row.

A generated loop that calls a helper per row pays a Python call per row —
what the runtime aggregation tables used to cost every aggregating query.
These gates count ``sys.setprofile`` ``call`` events over one dblab-5 run and
read the generated source of Q1, whose summed columns statistics prove free
of NULLs.

Beside them, the layout gate: a group of one sum, count, min or max keeps
the value in its table slot instead of a one-element record, and a hash
build whose probes read only base columns at one row position stores that
position instead of a tuple — so the largest transient a query allocates
shrinks (tracemalloc, one run each).
"""
import gc
import re
import sys
import tracemalloc

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.ir.nodes import Sym
from repro.ir.traversal import iter_program_stmts
from repro.stack.configs import build_config
from repro.tpch.queries import QUERY_NAMES, build_query

#: Python calls one run may make whatever its row count: the governor hooks
#: at the head of each top-level loop, the final sort and its key functions
CALL_BUDGET = 100


def _compiled(catalog, query, planner=False):
    config = build_config("dblab-5", planner=planner)
    return QueryCompiler(config.stack, config.flags).compile(
        build_query(query), catalog, query)


def _calls(run):
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("planner", [False, True], ids=["raw", "planned"])
@pytest.mark.parametrize("query", ["Q1", "Q6", "Q17"])
def test_a_run_makes_no_per_row_call(tpch_catalog, query, planner):
    compiled = _compiled(tpch_catalog, query, planner)
    aux = compiled.prepare(tpch_catalog)
    compiled.run(tpch_catalog, aux)   # the first run may warm lazy structures
    assert tpch_catalog.table("lineitem").num_rows > 50 * CALL_BUDGET
    assert _calls(lambda: compiled.run(tpch_catalog, aux)) < CALL_BUDGET


def test_q1_folds_keep_no_null_guard(tpch_catalog):
    """The lowering guards each fold with ``is not None``; folding drops
    every guard, because Q1's columns hold no NULL."""
    statistics = tpch_catalog.statistics
    for column in ("l_quantity", "l_extendedprice", "l_discount", "l_tax"):
        assert statistics.column("lineitem", column).num_nulls == 0
    source = _compiled(tpch_catalog, "Q1").source
    assert "is not None" not in source
    assert "acc_" in source and "_rt.governed_range" in source


# ---------------------------------------------------------------------------
# Layout: what a pipeline breaker keeps per group and per build row
# ---------------------------------------------------------------------------
def _planned_programs(catalog):
    config = build_config("dblab-5", planner=True)
    compiler = QueryCompiler(config.stack, config.flags)
    for query in QUERY_NAMES:
        yield query, compiler.lower(build_query(query), catalog, query).program


def _definition(atom, defs):
    return defs.get(atom.id) if isinstance(atom, Sym) else None


def _column_read(atom, defs):
    """The ``array_get`` over a base column that defines ``atom``, if one does."""
    read = _definition(atom, defs)
    if read is None or read.op != "array_get":
        return None
    column = _definition(read.args[0], defs)
    return read if column is not None and column.op == "table_column" else None


def _stored_records(program):
    """The records a hash build stores: the values of ``mmap_add`` and of its
    lowered forms, an append to a dense array's bucket and a store into a
    unique key's slot."""
    defs = {stmt.sym.id: stmt.expr for stmt, _ in iter_program_stmts(program)}
    for stmt, _ in iter_program_stmts(program):
        expr = stmt.expr
        value = {"mmap_add": 2, "list_append": 1, "array_set": 2}.get(expr.op)
        record = None if value is None else _definition(expr.args[value], defs)
        if record is None or record.op != "record_new":
            continue
        target = _definition(expr.args[0], defs)
        if expr.op == "list_append" and (target is None or target.op != "array_get"):
            continue   # a sort or limit buffer, the result, a shared subplan
        yield record, defs


def _base_position(atom, defs):
    """The row position ``atom`` is a base column read at — followed back
    through a unique key's slot to the position its key was read at — or
    ``None`` when it is not a base column read."""
    read = _column_read(atom, defs)
    if read is None:
        return None
    position = read.args[1]
    while True:
        slot = _definition(position, defs)
        if slot is not None and slot.op == "if_":     # a bounds-checked slot read
            slot = _definition(slot.blocks[0].result, defs)
        partition = None if slot is None or slot.op != "array_get" \
            else _definition(slot.args[0], defs)
        if partition is None or partition.op != "access_partition":
            return position
        key = slot.args[1]
        offset = _definition(key, defs)
        if offset is not None and offset.op == "sub":
            key = offset.args[0]
        key_read = _column_read(key, defs)
        if key_read is None:
            return position
        position = key_read.args[1]


def test_no_group_of_one_accumulator_keeps_a_record(tpch_catalog):
    """Across the 22 planned dblab-5 programs, a lone sum / count / min /
    max is its table slot: no group record holds one accumulator alone."""
    config = build_config("dblab-5", planner=True)
    compiler = QueryCompiler(config.stack, config.flags)
    one_slot = re.compile(r"= \[(0|0\.0|None)\]$")
    for query in QUERY_NAMES:
        source = compiler.compile(build_query(query), tpch_catalog, query).source
        assert not [line for line in source.splitlines() if one_slot.search(line)], query


def test_no_build_over_one_base_row_stores_a_tuple(tpch_catalog):
    """Across the 22 planned dblab-5 programs, no hash build stores a tuple
    whose every field is a base column read at one row position — directly,
    or through a unique key's slot from a column at it (Q7's lineitem build
    reaching supplier through ``l_suppkey``).  Such a build stores the
    position; the tuples left hold fields of two rows or computed values."""
    covered = []
    stored = 0
    for query, program in _planned_programs(tpch_catalog):
        for record, defs in _stored_records(program):
            stored += 1
            positions = {_base_position(arg, defs) for arg in record.args}
            if None not in positions and len(positions) == 1:
                covered.append((query, record.attrs["fields"]))
    assert stored and not covered, covered


#: tracemalloc peak of one dblab-5 run, planned, on the session catalog
#: (sf 0.001), with one-element accumulator records and build tuples:
#: Q7 279 464 bytes, Q18 198 320, Q20 154 216.
PARENT_PEAK_BYTES = {"Q7": 279_464, "Q18": 198_320, "Q20": 154_216}
#: the share of that a run may still take; Q7 reads 29 % and Q18 52 %
PEAK_SHARE = 0.6


@pytest.mark.parametrize("query", [
    "Q7", "Q18",
    # 72 % here, 64 % at sf 0.01: Q20's peak is now its
    # ``(l_partkey, l_suppkey)``-keyed aggregate — tuple keys, the dict and
    # float sums (43, 36 and 18 KB), none of them a record — until
    # composite keys get dictionary codes
    pytest.param("Q20", marks=pytest.mark.xfail(
        reason="the peak is a composite-keyed aggregate's tuple keys", strict=False))])
def test_one_run_allocates_less_than_the_record_layout(tpch_catalog, query):
    compiled = _compiled(tpch_catalog, query, planner=True)
    aux = compiled.prepare(tpch_catalog)
    compiled.run(tpch_catalog, aux)   # the first run may warm lazy structures
    # a full collection empties the interpreter's free lists, so the run's
    # tuples and lists are allocated, and traced, afresh
    gc.collect()
    tracemalloc.start()
    try:
        compiled.run(tpch_catalog, aux)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_SHARE * PARENT_PEAK_BYTES[query], peak
