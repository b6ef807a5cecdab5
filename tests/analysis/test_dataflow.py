"""Unit tests for the dataflow analysis framework and its lattices."""
from repro.analysis.dataflow.framework import use_def, walk_backward, walk_forward
from repro.analysis.dataflow.lattices import Interval, Nullability, ValueFact
from repro.analysis.dataflow.liveness import liveness
from repro.analysis.dataflow.purity import purity
from repro.analysis.dataflow.values import value_facts
from repro.ir import IRBuilder, make_program
from repro.ir.nodes import Sym
from repro.storage.catalog import Catalog
from repro.storage.layouts import ColumnarTable
from repro.storage.schema import TableSchema, int_column, string_column


class TestIntervalLattice:
    def test_join_is_hull(self):
        assert Interval(1, 3).join(Interval(5, 9)) == Interval(1, 9)
        assert Interval(None, 3).join(Interval(5, 9)) == Interval(None, 9)

    def test_leq_is_containment(self):
        assert Interval(2, 3).leq(Interval(1, 9))
        assert not Interval(0, 3).leq(Interval(1, 9))
        assert Interval(1, 2).leq(Interval.top())

    def test_arithmetic(self):
        assert Interval(1, 3).add(Interval(10, 20)) == Interval(11, 23)
        assert Interval(1, 3).sub(Interval(1, 2)) == Interval(-1, 2)
        assert Interval(-2, 3).mul(Interval(4, 5)) == Interval(-10, 15)
        assert Interval(1, 3).neg() == Interval(-3, -1)

    def test_compare_verdicts(self):
        assert Interval(1, 3).compare(Interval(5, 9), "lt").known_true
        assert Interval(5, 9).compare(Interval(1, 3), "lt").known_false
        assert Interval(1, 9).compare(Interval(5, 6), "lt") == Interval.boolean()
        assert Interval(2, 2).compare(Interval(2, 2), "eq").known_true
        assert Interval(1, 3).compare(Interval(5, 9), "ne").known_true

    def test_one_sided_bounds_still_compare(self):
        assert Interval(None, 3).compare(Interval(5, None), "lt").known_true


class TestNullability:
    def test_join(self):
        assert Nullability.NON_NULL.join(Nullability.NON_NULL) is Nullability.NON_NULL
        assert Nullability.NON_NULL.join(Nullability.NULL) is Nullability.MAYBE_NULL
        assert Nullability.NULL.join(Nullability.NULL) is Nullability.NULL

    def test_of_const(self):
        assert ValueFact.of_const(None).nullability is Nullability.NULL
        assert ValueFact.of_const(7).interval == Interval(7, 7)
        assert ValueFact.of_const(True).interval == Interval(1, 1)

    def test_value_fact_is_the_product_lattice(self):
        joined = ValueFact.of_const(3).join(ValueFact.of_const(None))
        assert joined.interval == Interval.top()  # NULL says nothing numeric
        assert joined.nullability is Nullability.MAYBE_NULL
        both = ValueFact.of_const(3).join(ValueFact.of_const(8))
        assert both == ValueFact(Interval(3, 8), Nullability.NON_NULL)
        assert ValueFact.of_const(5).leq(both)
        assert not ValueFact.of_const(9).leq(both)
        assert not joined.leq(both)  # MAYBE_NULL is above NON_NULL


class TestFrameworkWalkersAndUseDef:
    def test_forward_and_backward_visit_all_stmts(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        b.for_range(0, 10, lambda i: b.emit("mul", [i, x]))
        program = make_program(b.finish(x), [], "ScaLite")
        forward = [stmt.expr.op for stmt, _, _ in walk_forward(program)]
        backward = [stmt.expr.op for stmt, _, _ in walk_backward(program)]
        assert sorted(forward) == sorted(backward)
        assert "mul" in forward and "for_range" in forward

    def test_loop_bodies_count_depth(self):
        b = IRBuilder()
        b.for_range(0, 10, lambda i: b.emit("mul", [i, 2]))
        program = make_program(b.finish(None), [], "ScaLite")
        depths = {stmt.expr.op: depth for stmt, _, depth in walk_forward(program)}
        assert depths["for_range"] == 0
        assert depths["mul"] == 1

    def test_use_def_is_memoized_per_program_object(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        program = make_program(b.finish(x), [], "ScaLite")
        assert use_def(program) is use_def(program)
        rebuilt = make_program(program.body, program.params, program.language,
                               program.hoisted)
        assert use_def(rebuilt) is not use_def(program)

    def test_use_counts_include_block_results(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        program = make_program(b.finish(x), [], "ScaLite")
        assert use_def(program).uses[x.id] == 1


class TestLiveness:
    def test_dead_chain_is_dead_in_one_pass(self):
        b = IRBuilder()
        keep = b.emit("add", [1, 2])
        mid = b.emit("mul", [keep, 3], hint="mid")
        top = b.emit("add", [mid, 4], hint="top")
        program = make_program(b.finish(keep), [], "ScaLite")
        live = liveness(program)
        assert keep.id in live.live
        assert mid.id not in live.live
        assert top.id not in live.live

    def test_effectful_statement_roots_its_args(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        b.emit("print_", [x])
        program = make_program(b.finish(None), [], "ScaLite")
        assert x.id in liveness(program).live


class TestPurity:
    def test_write_only_allocation_is_removable(self):
        b = IRBuilder()
        lst = b.emit("list_new", [])
        append = b.emit("list_append", [lst, 1])
        program = make_program(b.finish(None), [], "ScaLite")
        facts = purity(program)
        assert lst.id in facts.removable_objects
        assert append.id in facts.dead_writes

    def test_escaping_allocation_is_kept(self):
        b = IRBuilder()
        lst = b.emit("list_new", [])
        b.emit("list_append", [lst, 1])
        program = make_program(b.finish(lst), [], "ScaLite")
        facts = purity(program)
        assert lst.id in facts.escaping
        assert lst.id not in facts.removable_objects

    def test_read_use_makes_object_escape(self):
        b = IRBuilder()
        lst = b.emit("list_new", [])
        b.emit("list_append", [lst, 1])
        head = b.emit("list_take", [lst, 1])
        program = make_program(b.finish(head), [], "ScaLite")
        assert lst.id in purity(program).escaping


def _stats_catalog():
    catalog = Catalog()
    schema = TableSchema("T", [int_column("t_id"), int_column("t_nullable"),
                               string_column("t_name")], primary_key=("t_id",))
    catalog.register(ColumnarTable(schema, {
        "t_id": [100, 101, 102, 103],
        "t_nullable": [1, None, 3, 4],
        "t_name": ["a", "b", "a", "c"],
    }))
    return catalog


class TestValueFacts:
    def test_column_reads_seed_from_statistics(self):
        catalog = _stats_catalog()
        b = IRBuilder()
        db = Sym("db")
        column = b.emit("table_column", [db], {"table": "T", "column": "t_id"})
        n = b.emit("table_size", [db], {"table": "T"})

        got = {}

        def body(i):
            got["value"] = b.emit("array_get", [column, i])
            got["cmp"] = b.emit("lt", [got["value"], 1000])

        b.for_range(0, n, body)
        program = make_program(b.finish(None), [db], "ScaLite")
        facts = value_facts(program, catalog)
        value = facts.fact_of(got["value"].id)
        assert value.interval == Interval(100, 103)
        assert value.nullability is Nullability.NON_NULL
        assert facts.fact_of(got["cmp"].id).interval.known_true

    def test_nullable_column_stays_maybe_null(self):
        catalog = _stats_catalog()
        b = IRBuilder()
        db = Sym("db")
        column = b.emit("table_column", [db],
                        {"table": "T", "column": "t_nullable"})
        got = {}
        b.for_range(0, 4, lambda i: got.setdefault(
            "value", b.emit("array_get", [column, i])))
        program = make_program(b.finish(None), [db], "ScaLite")
        facts = value_facts(program, catalog)
        assert facts.fact_of(got["value"].id).nullability is Nullability.MAYBE_NULL

    def test_loop_index_bounded_by_range(self):
        b = IRBuilder()
        got = {}
        b.for_range(2, 10, lambda i: got.setdefault(
            "shifted", b.emit("add", [i, 5])))
        program = make_program(b.finish(None), [], "ScaLite")
        facts = value_facts(program, None)
        assert facts.fact_of(got["shifted"].id).interval == Interval(7, 14)

    def test_null_literal_comparison_folds(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        is_null = b.emit("eq", [x, None])
        not_null = b.emit("ne", [x, None])
        program = make_program(b.finish(None), [], "ScaLite")
        facts = value_facts(program, None)
        assert facts.fact_of(is_null.id).interval.known_false
        assert facts.fact_of(not_null.id).interval.known_true

    def test_branch_results_join(self):
        b = IRBuilder()
        cond = b.emit("lt", [1, 2])
        result = b.if_(cond, lambda: b.const(5), lambda: b.const(9))
        program = make_program(b.finish(result), [], "ScaLite")
        facts = value_facts(program, None)
        assert facts.fact_of(result.id).interval == Interval(5, 9)

    def test_facts_are_memoized_per_catalog(self):
        catalog = _stats_catalog()
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        program = make_program(b.finish(x), [], "ScaLite")
        assert value_facts(program, catalog) is value_facts(program, catalog)
        assert value_facts(program, None) is not value_facts(program, catalog)
