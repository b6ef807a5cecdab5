"""Property-based tests (hypothesis) over the core invariants of the stack.

* compiled plans agree with the interpreter on randomly generated filters,
  projections and aggregations over randomly generated tables,
* one join of every kind between two random tables — on equal keys, or on
  a constant key (a theta join or a cross product) — under every aggregate
  kind, agrees with the interpreter on every engine, planner off and on —
  also when the rows a build holds reach a third table through its primary
  key or come out of a left outer join, and when the build side is empty,
* every aggregate kind over nullable columns, grouped by a dense int, a
  string, a composite key or nothing, gives exactly the interpreter's values
  on the vectorized engine and every configuration, planner off and on,
  empty inputs and a cancelling float sum included — all kinds at once, or
  one sum / count / min / max alone, which a group keeps in its table slot
  (a group that folds only NULLs included),
* ``and`` / ``or`` of non-bool operands give the interpreter's bools on every
  engine,
* the ANF builder's hash-consing and DCE never change the value a straight-line
  arithmetic program computes, and folding an op over literals gives, value
  and type, what the generated code computes,
* the catalog's string dictionaries preserve equality and lexicographic
  prefix semantics,
* the integer date encoding preserves ordering.
"""
import string

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import dates
from repro.bench.harness import BenchmarkHarness, rows_equivalent
from repro.codegen import runtime
from repro.codegen.compiler import QueryCompiler
from repro.codegen.unparser import PythonUnparser
from repro.dsl import qplan as Q
from repro.dsl.expr import col, lit
from repro.engine.volcano import execute
from repro.ir import IRBuilder, make_program
from repro.ir.nodes import Const, Sym
from repro.ir.traversal import count_ops
from repro.planner import sort_contract
from repro.stack import CompilationContext, OptimizationFlags, SCALITE
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, float_column, int_column, string_column
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.folding import DataflowFolding

SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Random tables and plans vs the interpreter
# ---------------------------------------------------------------------------
rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20),
              st.sampled_from(["red", "green", "blue", "teal"]),
              st.floats(min_value=-100, max_value=100, allow_nan=False)),
    min_size=0, max_size=40)


def make_catalog(rows) -> Catalog:
    schema = TableSchema("t", [int_column("k"), string_column("color"),
                               float_column("v")])
    catalog = Catalog()
    catalog.register(ColumnarTable(schema, {
        "k": [r[0] for r in rows],
        "color": [r[1] for r in rows],
        "v": [round(r[2], 3) for r in rows],
    }))
    return catalog


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items())) for row in rows)


class TestCompiledVsInterpreter:
    @SETTINGS
    @given(rows=rows_strategy, threshold=st.integers(min_value=0, max_value=20))
    def test_filter_aggregate(self, rows, threshold):
        catalog = make_catalog(rows)
        plan = Q.Agg(Q.Select(Q.Scan("t"), col("k") >= threshold),
                     [("color", col("color"))],
                     [Q.AggSpec("count", None, "n"), Q.AggSpec("sum", col("v"), "total")])
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, catalog, "prop")
        assert canon(compiled.run(catalog)) == canon(execute(plan, catalog))

    @SETTINGS
    @given(rows=rows_strategy, color=st.sampled_from(["red", "green", "purple"]))
    def test_projection_and_filter(self, rows, color):
        catalog = make_catalog(rows)
        plan = Q.Project(Q.Select(Q.Scan("t"), col("color") == color),
                         [("double_v", col("v") * 2), ("k", col("k"))])
        for config_name in ("dblab-2", "dblab-4"):
            config = build_config(config_name)
            compiled = QueryCompiler(config.stack, config.flags).compile(plan, catalog, "prop")
            assert canon(compiled.run(catalog)) == canon(execute(plan, catalog))

    @SETTINGS
    @given(rows=rows_strategy)
    def test_self_join_counts(self, rows):
        catalog = make_catalog(rows)
        plan = Q.Agg(
            Q.HashJoin(Q.Scan("t"), Q.Scan("t", fields=("k",)), col("k"), col("k"),
                       kind="leftsemi"),
            [], [Q.AggSpec("count", None, "n")])
        config = build_config("dblab-5")
        compiled = QueryCompiler(config.stack, config.flags).compile(plan, catalog, "prop")
        assert canon(compiled.run(catalog)) == canon(execute(plan, catalog))


# ---------------------------------------------------------------------------
# Two tables, one join, every aggregate kind: every engine vs the interpreter
# ---------------------------------------------------------------------------
#: join keys repeat and may be NULL
keys = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
left_rows = st.lists(st.tuples(keys, st.sampled_from("xyz"), st.integers(-9, 9)),
                     max_size=10)
right_rows = st.lists(st.tuples(keys, st.integers(-9, 9)), max_size=10)
JOIN_ENGINES = ("vectorized",) + CONFIG_NAMES


def make_join_catalog(left, right) -> Catalog:
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("a", [int_column("ak"), string_column("ag"), int_column("av")]),
        {"ak": [r[0] for r in left], "ag": [r[1] for r in left],
         "av": [r[2] for r in left]}))
    catalog.register(ColumnarTable(
        TableSchema("b", [int_column("bk"), int_column("bv")]),
        {"bk": [r[0] for r in right], "bv": [r[1] for r in right]}))
    # a dense primary key over the join keys' values
    catalog.register(ColumnarTable(
        TableSchema("k", [int_column("kk"), int_column("kv")], primary_key=("kk",)),
        {"kk": [0, 1, 2, 3], "kv": [40, -30, 20, -10]}))
    return catalog


def join_aggregate(kind, residual, grouped, through=False, padded=False, theta=False):
    """``kind`` join of ``a`` and ``b`` under every aggregate kind; grouped
    plans are sorted on the group key, so the contract has a key to check.
    ``theta``: both keys are ``lit(0)``, so the join is a theta join on the
    residual, or a cross product without one.
    ``through``: ``a``'s rows first reach ``k``'s through its primary key,
    and an aggregate reads ``k`` — Q7's lineitem build, which reaches
    supplier through ``l_suppkey``.  ``padded``: ``a``'s rows first come
    out of a left outer join with ``k``, projected back to ``a``'s columns,
    so each reaches what is above from two places, matched and padded."""
    left = Q.Scan("a")
    if padded:
        left = Q.Project(Q.HashJoin(left, Q.Scan("k"), col("ak"), col("kk"), "leftouter"),
                         [(name, col(name)) for name in ("ak", "ag", "av")])
    if through:
        left = Q.HashJoin(Q.Scan("k"), left, col("kk"), col("ak"))
    left_key, right_key = (lit(0), lit(0)) if theta else (col("ak"), col("bk"))
    join = Q.HashJoin(left, Q.Scan("b"), left_key, right_key, kind,
                      col("av") <= col("bv") if residual else None)
    # semi and anti joins emit left rows only; inner and outer see ``b`` too
    value = col("bv") if kind in ("inner", "leftouter") else col("av")
    specs = [Q.AggSpec("sum", value, "total"), Q.AggSpec("count", col("ak"), "keyed"),
             Q.AggSpec("count", None, "n"), Q.AggSpec("avg", value, "mean"),
             Q.AggSpec("min", col("kv" if through else "av"), "low"),
             Q.AggSpec("max", value, "high"),
             Q.AggSpec("count_distinct", value, "kinds")]
    assert {spec.kind for spec in specs} == set(Q.AGG_KINDS)
    if not grouped:
        return Q.Agg(join, [], specs)
    return Q.Sort(Q.Agg(join, [("ag", col("ag"))], specs), [(col("ag"), "asc")])


class TestTwoTableDifferential:
    @settings(SETTINGS, max_examples=60)
    @given(left=left_rows, right=right_rows, kind=st.sampled_from(Q.JOIN_KINDS),
           residual=st.booleans(), grouped=st.booleans(), through=st.booleans(),
           padded=st.booleans(), theta=st.booleans())
    # a NULL probe key against a dense build key — after the planner swaps the
    # build side, on the right input, under a semi join: the compiled stacks
    # indexed the dense array with it
    @example(left=[(0, "y", 7), (None, "x", -8)], right=[(1, -5)], kind="inner",
             residual=False, grouped=False, through=False, padded=False, theta=False)
    @example(left=[(0, "z", -6)], right=[(None, -5), (1, 3)], kind="inner",
             residual=False, grouped=False, through=False, padded=False, theta=False)
    @example(left=[(None, "x", 0)], right=[(0, 0)], kind="leftsemi",
             residual=False, grouped=True, through=False, padded=False, theta=False)
    # Q7's shape: the build stores a's row position, and its probe reaches
    # k's row through the primary key again, with and without a residual
    @example(left=[(1, "x", 2), (3, "y", -4), (1, "z", 5)], right=[(1, 3), (3, -4), (1, 0)],
             kind="inner", residual=False, grouped=True, through=True, padded=False, theta=False)
    @example(left=[(1, "x", 2), (3, "y", -4), (1, "z", 5)], right=[(1, 3), (3, -4), (1, 0)],
             kind="inner", residual=True, grouped=False, through=True, padded=False, theta=False)
    # an empty build side: each kind builds from one side, the planner may
    # swap it
    @example(left=[], right=[(1, 3)], kind="inner", residual=False, grouped=False,
             through=True, padded=False, theta=False)
    @example(left=[(1, "x", 2)], right=[], kind="leftouter", residual=False,
             grouped=True, through=False, padded=False, theta=False)
    @example(left=[(1, "x", 2)], right=[], kind="leftsemi", residual=False,
             grouped=False, through=False, padded=False, theta=False)
    @example(left=[(1, "x", 2)], right=[], kind="leftanti", residual=True,
             grouped=False, through=True, padded=False, theta=False)
    # a build over a projection of an outer join, and over a primary-key
    # lookup from one: both call sites, matched and padded, store a's
    # position, and store it one way
    @example(left=[(1, "x", 2), (3, "y", -4), (1, "z", 5)], right=[(1, 3), (3, -4), (1, 0)],
             kind="inner", residual=False, grouped=True, through=False, padded=True, theta=False)
    @example(left=[(1, "x", 2), (3, "y", -4), (1, "z", 5)], right=[(1, 3), (3, -4), (1, 0)],
             kind="inner", residual=True, grouped=False, through=True, padded=True, theta=False)
    # theta joins and cross products: a constant key on both sides, one
    # bucket holding every build row; and an empty build side
    @example(left=[(1, "x", 2), (None, "y", -4), (1, "z", 5)], right=[(1, 3), (None, -4), (2, 0)],
             kind="inner", residual=True, grouped=True, through=False, padded=False, theta=True)
    @example(left=[(1, "x", 2), (None, "y", -4), (1, "z", 5)], right=[(1, 3), (None, -4), (2, 0)],
             kind="leftsemi", residual=True, grouped=False, through=True, padded=False,
             theta=True)
    @example(left=[(1, "x", 2), (None, "y", -4), (1, "z", 5)], right=[(1, 3), (None, -4), (2, 0)],
             kind="leftanti", residual=True, grouped=True, through=False, padded=True,
             theta=True)
    @example(left=[(1, "x", 2), (None, "y", -4), (1, "z", 5)], right=[(1, 3), (None, -4), (2, 0)],
             kind="leftouter", residual=False, grouped=True, through=False, padded=False,
             theta=True)
    @example(left=[(1, "x", 2), (3, "y", -4)], right=[], kind="leftouter", residual=True,
             grouped=False, through=False, padded=False, theta=True)
    def test_join_under_every_aggregate_matches_volcano(self, left, right, kind, residual,
                                                        grouped, through, padded, theta):
        catalog = make_join_catalog(left, right)
        plan = join_aggregate(kind, residual, grouped, through, padded, theta)
        expected = execute(plan, catalog)
        contract = sort_contract(plan)
        harness = BenchmarkHarness(catalog, engines=JOIN_ENGINES)
        for planned in (plan, harness.planner.optimize(plan)):
            for engine in JOIN_ENGINES:
                rows = harness.run_once("join", engine, planned)
                assert rows_equivalent(expected, rows, sort_keys=contract), \
                    (engine, planned is not plan, expected, rows)

    @pytest.mark.parametrize("shape", ["build", "probe", "group"])
    def test_a_foreign_key_holding_null_keeps_the_generic_map(self, shape):
        """The key's domain (the primary key) is dense, but a NULL in the
        foreign-key column indexes no slot: build, probe and grouping key."""
        catalog = Catalog()
        catalog.register(ColumnarTable(
            TableSchema("a", [int_column("ak"), int_column("av")], primary_key=("ak",)),
            {"ak": [0, 1, 2], "av": [5, 6, 7]}))
        catalog.register(ColumnarTable(
            TableSchema("b", [int_column("bk", references=("a", "ak")),
                              int_column("bv")]),
            {"bk": [1, None, 2, 1], "bv": [1, 2, 3, 4]}))
        specs = [Q.AggSpec("count", None, "n"), Q.AggSpec("sum", col("bv"), "s")]
        plan = {
            "build": Q.Agg(Q.HashJoin(Q.Scan("b"), Q.Scan("a"), col("bk"), col("ak")),
                           [], specs),
            "probe": Q.Agg(Q.HashJoin(Q.Scan("a"), Q.Scan("b"), col("ak"), col("bk")),
                           [], specs),
            "group": Q.Agg(Q.Scan("b"), [("bk", col("bk"))], specs),
        }[shape]
        expected = execute(plan, catalog)
        harness = BenchmarkHarness(catalog, engines=JOIN_ENGINES)
        for planned in (plan, harness.planner.optimize(plan)):
            for engine in JOIN_ENGINES:
                assert rows_equivalent(expected, harness.run_once(shape, engine, planned)), \
                    (engine, planned is not plan)

    @pytest.mark.parametrize("shape", ["probe", "build", "group"])
    def test_a_key_padded_by_an_outer_join_below(self, shape):
        """``b.bk`` has no NULL in its base column and draws from a dense
        primary key, but the left outer join ``c ⟕ b`` below pads it with
        ``None``: probe, build and grouping key keep the generic map."""
        catalog = Catalog()
        catalog.register(ColumnarTable(
            TableSchema("a", [int_column("ak")], primary_key=("ak",)), {"ak": [0, 1, 2]}))
        catalog.register(ColumnarTable(
            TableSchema("b", [int_column("bk", references=("a", "ak")),
                              int_column("bc")]),
            {"bk": [1, 2], "bc": [10, 11]}))
        catalog.register(ColumnarTable(TableSchema("c", [int_column("ck")]),
                                       {"ck": [10, 12]}))
        padded = Q.HashJoin(Q.Scan("c"), Q.Scan("b"), col("ck"), col("bc"),
                            kind="leftouter")
        count = [Q.AggSpec("count", None, "n")]
        plan = {
            "probe": Q.Agg(Q.HashJoin(Q.Scan("a"), padded, col("ak"), col("bk")),
                           [], count),
            "build": Q.Agg(Q.HashJoin(padded, Q.Scan("a"), col("bk"), col("ak")),
                           [], count),
            "group": Q.Agg(padded, [("bk", col("bk"))], count),
        }[shape]
        expected = execute(plan, catalog)
        harness = BenchmarkHarness(catalog, engines=JOIN_ENGINES)
        for planned in (plan, harness.planner.optimize(plan)):
            for engine in JOIN_ENGINES:
                assert rows_equivalent(expected, harness.run_once(shape, engine, planned)), \
                    (engine, planned is not plan)


# ---------------------------------------------------------------------------
# One table, every aggregate kind under every key shape: every engine
# ---------------------------------------------------------------------------
def nullable(values):
    return st.one_of(st.none(), values)


#: (d, i, f, s): ``d`` is a NULL-free int in a dense range, the rest may be NULL
agg_rows = st.lists(st.tuples(st.integers(0, 6), nullable(st.integers(-9, 9)),
                              nullable(st.integers(-400, 400).map(lambda n: n / 4)),
                              nullable(st.sampled_from("abc"))),
                    max_size=12)
#: grouping keys: dense int, string (may be NULL), composite, none (a global fold)
AGG_KEYS = {"dense": [("d", col("d"))], "string": [("s", col("s"))],
            "composite": [("d", col("d")), ("s", col("s"))], "none": []}
AGG_SPECS = [Q.AggSpec("sum", col("f"), "sf"), Q.AggSpec("sum", col("i"), "si"),
             Q.AggSpec("count", col("f"), "cf"), Q.AggSpec("count", None, "n"),
             Q.AggSpec("min", col("i"), "lo"), Q.AggSpec("min", col("s"), "first"),
             Q.AggSpec("max", col("f"), "hi"), Q.AggSpec("max", col("s"), "last"),
             Q.AggSpec("avg", col("f"), "af"), Q.AggSpec("avg", col("i"), "ai"),
             Q.AggSpec("count_distinct", col("s"), "ds"),
             Q.AggSpec("count_distinct", col("i"), "di")]
#: every kind folds a NULL in the middle of a group, next to a second group
FOLD_ALL_KINDS = [(3, 5, 1.0, "a"), (3, 3, 2.0, "b"), (3, None, None, "a"),
                  (1, 10, None, None), (3, 7, 4.5, None)]
#: group 2 folds nothing but NULLs, around a group that folds values
NULL_GROUP = [(2, None, None, None), (4, 1, 2.5, "c"), (2, None, None, None)]
#: a left-to-right float sum that cancels to 0.0, where a compensated sum
#: (builtin ``sum`` since CPython 3.12) gives 1.0
CANCELLING = [(1, 1, 1e16, "a"), (1, 2, 1.0, "a"), (1, 3, -1e16, "a")]
#: the aggregates a group keeps in its table slot when one is folded alone
ONE_SLOT = [spec.name for spec in AGG_SPECS if spec.kind in ("sum", "count", "min", "max")]


def make_agg_catalog(rows) -> Catalog:
    catalog = Catalog()
    catalog.register(ColumnarTable(
        TableSchema("t", [int_column("d"), int_column("i"), float_column("f"),
                          string_column("s")]),
        {name: [row[n] for row in rows] for n, name in enumerate("difs")}))
    return catalog


class TestAggregateDifferential:
    @settings(SETTINGS, max_examples=30)
    @given(rows=agg_rows, keys=st.sampled_from(sorted(AGG_KEYS)),
           threshold=st.integers(0, 7), alone=st.sampled_from([None] + ONE_SLOT))
    @example(rows=FOLD_ALL_KINDS, keys="dense", threshold=0, alone=None)
    @example(rows=FOLD_ALL_KINDS, keys="none", threshold=0, alone=None)
    @example(rows=[], keys="none", threshold=0, alone=None)
    @example(rows=[], keys="dense", threshold=0, alone=None)
    @example(rows=FOLD_ALL_KINDS, keys="none", threshold=7, alone=None)   # filtered empty
    @example(rows=FOLD_ALL_KINDS, keys="composite", threshold=7, alone=None)
    # one sum, count, min or max lives in its table slot: a group folding only
    # NULLs still exists (sum 0, count 0, min / max None), in a dense slot
    # array and in a hashed table
    @example(rows=NULL_GROUP, keys="dense", threshold=0, alone="sf")
    @example(rows=NULL_GROUP, keys="dense", threshold=0, alone="cf")
    @example(rows=NULL_GROUP, keys="dense", threshold=0, alone="lo")
    @example(rows=NULL_GROUP, keys="dense", threshold=0, alone="hi")
    @example(rows=NULL_GROUP, keys="composite", threshold=0, alone="si")
    @example(rows=NULL_GROUP, keys="string", threshold=0, alone="last")
    @example(rows=NULL_GROUP, keys="none", threshold=0, alone="first")
    @example(rows=[], keys="none", threshold=0, alone="hi")
    # every engine adds in the interpreter's order, from its start
    @example(rows=CANCELLING, keys="none", threshold=0, alone=None)
    @example(rows=CANCELLING, keys="dense", threshold=0, alone="sf")
    def test_every_kind_under_every_key_matches_volcano(self, rows, keys, threshold,
                                                        alone):
        """The vectorized engine and each configuration, planner off and on,
        run twice from one ``prepare`` (so no group state survives a run),
        give exactly Volcano's values; an empty input folds to one row
        globally and to none when grouped.  ``alone`` folds that one
        aggregate instead of all of them."""
        catalog = make_agg_catalog(rows)
        specs = [spec for spec in AGG_SPECS if alone in (None, spec.name)]
        plan = Q.Agg(Q.Select(Q.Scan("t"), col("d") >= threshold), AGG_KEYS[keys], specs)
        expected = execute(plan, catalog)
        if not any(row[0] >= threshold for row in rows):
            zero = {"sum": 0, "count": 0, "count_distinct": 0}
            assert expected == ([] if AGG_KEYS[keys] else [
                {spec.name: zero.get(spec.kind) for spec in specs}])
        harness = BenchmarkHarness(catalog, engines=JOIN_ENGINES)
        for planned in (plan, harness.planner.optimize(plan)):
            for engine in JOIN_ENGINES:
                run, _ = harness.runner("agg", engine, planned)
                for _ in range(2):
                    assert canon(run()) == canon(expected), \
                        (engine, planned is not plan, expected)


# ---------------------------------------------------------------------------
# Logical connectives over non-bool operands: every engine
# ---------------------------------------------------------------------------
class TestConnectiveDifferential:
    def test_and_or_of_non_bools_are_bools_on_every_engine(self):
        """The interpreter's ``and`` / ``or`` coerce both operands to bool;
        Python's return an operand (``None and True`` is ``None``)."""
        catalog = Catalog()
        catalog.register(ColumnarTable(TableSchema("t", [int_column("x")]),
                                       {"x": [None, 0, 5]}))
        plan = Q.Project(Q.Scan("t"), [
            ("a", col("x") & lit(True)), ("o", lit(0) | lit(5)),
            ("n", col("x") | col("x")), ("c", (col("x") == 5) & col("x"))])
        expected = execute(plan, catalog)
        assert [row["a"] for row in expected] == [False, False, True]
        harness = BenchmarkHarness(catalog)
        for engine in harness.engines:
            rows = harness.run_once("connectives", engine, plan)
            assert canon(rows) == canon(expected), (engine, rows)


# ---------------------------------------------------------------------------
# IR-level semantics preservation
# ---------------------------------------------------------------------------
#: the pure ops folding evaluates over literals, with their arity
FOLDED_OPS = [(op, 2) for op in ("add", "sub", "mul", "div", "eq", "ne", "lt", "le",
                                 "gt", "ge", "and_", "or_")] \
    + [(op, 1) for op in ("neg", "not_", "year_of_date")]
scalars = st.one_of(st.integers(-30000, 30000),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.booleans(), st.none(), st.text(max_size=3),
                    st.sampled_from([0, 0.0]))


def _build_straightline(values, operations):
    """Build an ANF program from a list of (op, operand-index) pairs."""
    builder = IRBuilder()
    db = Sym("db")
    atoms = [builder.const(v) for v in values]
    for op, index in operations:
        left = atoms[index % len(atoms)]
        right = atoms[(index + 1) % len(atoms)]
        atoms.append(builder.emit(op, [left, right]))
    return make_program(builder.finish(atoms[-1]), [db], "ScaLite")


def _evaluate(program):
    source = PythonUnparser("prop").unparse(program)
    namespace = {}
    exec(compile(source, "<prop>", "exec"), namespace)
    return namespace["query"](None, runtime, namespace["prepare"](None, runtime))


class TestIrInvariants:
    @SETTINGS
    @given(values=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=5),
           operations=st.lists(
               st.tuples(st.sampled_from(["add", "sub", "mul"]),
                         st.integers(min_value=0, max_value=30)),
               min_size=1, max_size=15))
    def test_dce_and_folding_preserve_results(self, values, operations):
        program = _build_straightline(values, operations)
        expected = _evaluate(program)
        context = CompilationContext(flags=OptimizationFlags())
        optimized = DeadCodeElimination(SCALITE).run(
            DataflowFolding(SCALITE).run(program, context), context)
        assert _evaluate(optimized) == expected

    @settings(SETTINGS, max_examples=300)
    @given(op=st.sampled_from(FOLDED_OPS), values=st.lists(scalars, min_size=2, max_size=2))
    @example(op=("and_", 2), values=[True, 5])
    @example(op=("or_", 2), values=[0, 5])
    @example(op=("div", 2), values=[1, 0.0])
    @example(op=("mul", 2), values=[1e308, 10.0])
    def test_folding_a_literal_op_equals_running_it(self, op, values):
        """Folding keeps the op when running it raises, and otherwise folds
        to what the generated code computes, value and type; the folded
        program runs (``inf`` has no literal) and computes the same."""
        op, arity = op
        builder = IRBuilder()
        result = builder.emit(op, [Const(value) for value in values[:arity]])
        program = make_program(builder.finish(result), [Sym("db")], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, CompilationContext())
        try:
            expected = _evaluate(program)
        except (TypeError, ZeroDivisionError, OverflowError):
            assert count_ops(folded) == {op: 1}
            return
        if isinstance(folded.body.result, Const):
            value = folded.body.result.value
            assert value == expected and type(value) is type(expected)
        value = _evaluate(folded)
        assert value == expected and type(value) is type(expected)

    @SETTINGS
    @given(values=st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=5),
           operations=st.lists(
               st.tuples(st.sampled_from(["add", "mul", "sub"]),
                         st.integers(min_value=0, max_value=30)),
               min_size=1, max_size=15))
    def test_cse_by_construction_is_sound(self, values, operations):
        """Emitting the same pure op twice in a scope returns the same symbol
        and adds one statement at most: none when the scope held it."""
        builder = IRBuilder()
        with builder.new_block() as (block, _):
            atoms = [builder.const(v) for v in values]
            for op, index in operations:
                args = [atoms[index % len(atoms)], atoms[(index + 1) % len(atoms)]]
                held = len(block.stmts)
                first = builder.emit(op, args)
                assert builder.emit(op, args) is first
                assert len(block.stmts) <= held + 1
                atoms.append(first)
        keys = [stmt.expr.cse_key() for stmt in block.stmts]
        assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Runtime structures
# ---------------------------------------------------------------------------
def catalog_dictionary(values):
    """A catalog whose ``T.t_s`` holds ``values`` five times over (so the
    column is not near-unique), and the access layer's dictionary of it."""
    catalog = Catalog()
    catalog.register(ColumnarTable(TableSchema("T", [string_column("t_s")]),
                                   {"t_s": list(values) * 5}))
    return catalog, catalog.access_layer().dictionary("T", "t_s")


class TestRuntimeProperties:
    """The catalog's string dictionary, as generated code reads it.  The
    alphabets hold a character outside the Basic Multilingual Plane and the
    largest code point, U+10FFFF: a prefix ceiling of ``prefix + U+FFFF`` once
    cut the first out of a prefix range, one of ``prefix + U+10FFFF`` the
    strings that continue past the second."""

    @SETTINGS
    @given(values=st.lists(st.text(alphabet=string.ascii_lowercase
                                   + "\U0001f600\U0010ffff",
                                   min_size=0, max_size=6),
                           min_size=1, max_size=50))
    def test_string_dictionary_preserves_equality_and_order(self, values):
        _catalog, dictionary = catalog_dictionary(values)
        for a in values:
            for b in values:
                assert (dictionary.code(a) == dictionary.code(b)) == (a == b)
                assert (dictionary.code(a) < dictionary.code(b)) == (a < b)

    @SETTINGS
    @given(values=st.lists(st.text(alphabet="abcd\U0001f600\U0010ffff",
                                   min_size=0, max_size=5),
                           min_size=1, max_size=30),
           prefix=st.text(alphabet="abcd\U0001f600\U0010ffff", min_size=1, max_size=3))
    @example(values=["ab", "a\U0001f600", "b"], prefix="a")
    @example(values=["ab", "a\U0010ffffz", "b"], prefix="a")
    @example(values=["a\U0010ffff", "a\U0010ffffz", "b", "\U0010ffff"],
             prefix="\U0010ffff")
    def test_prefix_range_equals_startswith(self, values, prefix):
        _catalog, dictionary = catalog_dictionary(values)
        lo, hi = runtime.catalog_prefix_range(dictionary, prefix)
        for value in set(values):
            code = dictionary.code(value)
            assert (lo <= code <= hi) == value.startswith(prefix)

    @SETTINGS
    @given(day_offsets=st.lists(st.integers(min_value=0, max_value=2400), min_size=2, max_size=20))
    def test_date_encoding_preserves_ordering(self, day_offsets):
        base = dates.date_to_int("1992-01-01")
        encoded = [dates.add_days(base, offset) for offset in day_offsets]
        assert sorted(encoded) == [d for _, d in sorted(zip(day_offsets, encoded))]
