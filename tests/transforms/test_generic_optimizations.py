"""Unit tests for the generic IR optimizations (DCE, folding, scalar replacement,
allocation hoisting, branchless booleans)."""

from repro.ir import IRBuilder, Const, make_program
from repro.ir.nodes import Sym
from repro.ir.traversal import count_ops
from repro.stack import CompilationContext, OptimizationFlags, SCALITE, C_PY
from repro.transforms.control_flow import BranchlessBooleans
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.memory_hoisting import MemoryAllocationHoisting
from repro.transforms.partial_eval import PartialEvaluation
from repro.transforms.scalar_replacement import ScalarReplacement


def context():
    return CompilationContext(flags=OptimizationFlags())


class TestDeadCodeElimination:
    def test_removes_unused_pure_and_read_statements(self):
        b = IRBuilder()
        used = b.emit("add", [1, 2])
        b.emit("mul", [used, 10])            # unused pure
        arr = b.emit("array_new", [5])
        b.emit("array_get", [arr, 0])        # unused read
        program = make_program(b.finish(used), [], "ScaLite")
        cleaned = DeadCodeElimination(SCALITE).run(program, context())
        counts = count_ops(cleaned)
        assert "mul" not in counts
        assert "array_get" not in counts
        # the array itself becomes dead once its only reader is gone
        assert "array_new" not in counts

    def test_keeps_writes_to_escaping_objects_and_io(self):
        b = IRBuilder()
        lst = b.emit("list_new", [])
        b.emit("list_append", [lst, 1])
        b.emit("print_", [Const("hello")])
        # returning the list makes it escape: the append is observable
        program = make_program(b.finish(lst), [], "ScaLite")
        cleaned = DeadCodeElimination(SCALITE).run(program, context())
        counts = count_ops(cleaned)
        assert counts["list_append"] == 1
        assert counts["print_"] == 1
        assert counts["list_new"] == 1   # kept alive by the escape

    def test_removes_write_only_non_escaping_objects(self):
        b = IRBuilder()
        lst = b.emit("list_new", [])
        b.emit("list_append", [lst, 1])
        b.emit("print_", [Const("hello")])
        # the list never escapes and is never read: it dies with its writes
        program = make_program(b.finish(Const(0)), [], "ScaLite")
        cleaned = DeadCodeElimination(SCALITE).run(program, context())
        counts = count_ops(cleaned)
        assert "list_append" not in counts
        assert "list_new" not in counts
        assert counts["print_"] == 1

    def test_cleans_inside_loop_bodies(self):
        b = IRBuilder()
        acc = b.emit("var_new", [0])

        def body(i):
            b.emit("mul", [i, 3])   # dead inside the loop
            b.emit("var_write", [acc, b.emit("add", [b.emit("var_read", [acc]), i])])

        b.for_range(0, 10, body)
        program = make_program(b.finish(b.emit("var_read", [acc])), [], "ScaLite")
        cleaned = DeadCodeElimination(SCALITE).run(program, context())
        assert "mul" not in count_ops(cleaned)
        assert count_ops(cleaned)["var_write"] == 1


class TestPartialEvaluation:
    def test_folds_constant_arithmetic(self):
        b = IRBuilder()
        x = b.emit("add", [2, 3])
        y = b.emit("mul", [x, 4])
        program = make_program(b.finish(y), [], "ScaLite")
        folded = PartialEvaluation(SCALITE).run(program, context())
        folded = PartialEvaluation(SCALITE).run(folded, context())
        assert count_ops(folded) == {}
        assert folded.body.result == Const(20)

    def test_folds_comparisons_and_logic(self):
        b = IRBuilder()
        c = b.emit("lt", [1, 2])
        d = b.emit("and_", [c, Const(True)])
        program = make_program(b.finish(d), [], "ScaLite")
        folded = PartialEvaluation(SCALITE).run(program, context())
        folded = PartialEvaluation(SCALITE).run(folded, context())
        assert folded.body.result == Const(True)

    def test_division_by_zero_not_folded(self):
        b = IRBuilder()
        x = b.emit("div", [1, 0])
        program = make_program(b.finish(x), [], "ScaLite")
        folded = PartialEvaluation(SCALITE).run(program, context())
        assert "div" in count_ops(folded)

    def test_mismatched_constant_types_not_folded(self):
        b = IRBuilder()
        x = b.emit("div", [Const("text"), Const(3)])
        y = b.emit("neg", [Const("text")])
        b.emit("add", [x, y])
        program = make_program(b.finish(Const(0)), [], "ScaLite")
        folded = PartialEvaluation(SCALITE).run(program, context())
        counts = count_ops(folded)
        assert "div" in counts and "neg" in counts

    def test_non_constant_args_untouched(self):
        b = IRBuilder()
        v = b.emit("var_new", [1])
        x = b.emit("add", [b.emit("var_read", [v]), 2])
        program = make_program(b.finish(x), [], "ScaLite")
        folded = PartialEvaluation(SCALITE).run(program, context())
        assert "add" in count_ops(folded)

    def test_year_of_date_folding(self):
        b = IRBuilder()
        x = b.emit("year_of_date", [19980902])
        program = make_program(b.finish(x), [], "ScaLite")
        folded = PartialEvaluation(SCALITE).run(program, context())
        assert folded.body.result == Const(1998)


class TestScalarReplacement:
    def test_record_get_of_fresh_record_is_forwarded(self):
        b = IRBuilder()
        a = b.emit("add", [1, 2])
        rec = b.emit("record_new", [a, Const(7)], attrs={"fields": ("x", "y"),
                                                         "layout": "boxed"})
        read = b.emit("record_get", [rec], attrs={"field": "y"})
        out = b.emit("mul", [read, 2])
        program = make_program(b.finish(out), [], "ScaLite")
        replaced = ScalarReplacement(SCALITE).run(program, context())
        cleaned = DeadCodeElimination(SCALITE).run(replaced, context())
        counts = count_ops(cleaned)
        assert "record_get" not in counts
        assert "record_new" not in counts   # flattened away entirely

    def test_records_stored_in_structures_are_kept(self):
        b = IRBuilder()
        rec = b.emit("record_new", [Const(1)], attrs={"fields": ("x",), "layout": "boxed"})
        lst = b.emit("list_new", [])
        b.emit("list_append", [lst, rec])
        read = b.emit("record_get", [rec], attrs={"field": "x"})
        program = make_program(b.finish(read), [], "ScaLite")
        replaced = ScalarReplacement(SCALITE).run(program, context())
        cleaned = DeadCodeElimination(SCALITE).run(replaced, context())
        counts = count_ops(cleaned)
        assert counts["record_new"] == 1      # still stored in the list
        assert "record_get" not in counts     # but the read is forwarded


class TestMemoryHoisting:
    def test_hoists_table_access_and_pure_statements(self):
        db = Sym("db")
        b = IRBuilder()
        n = b.emit("table_size", [db], attrs={"table": "t"})
        col = b.emit("table_column", [db], attrs={"table": "t", "column": "c"})
        lst = b.emit("list_new", [])

        def body(i):
            b.emit("list_append", [lst, b.emit("array_get", [col, i])])

        b.for_range(0, n, body)
        program = make_program(b.finish(lst), [db], "ScaLite")
        hoisted = MemoryAllocationHoisting(SCALITE).run(program, context())
        hoisted_ops = {s.expr.op for s in hoisted.hoisted.stmts}
        assert "table_size" in hoisted_ops and "table_column" in hoisted_ops
        body_ops = {s.expr.op for s in hoisted.body.stmts}
        assert "list_new" in body_ops          # mutable state stays in the body
        assert "for_range" in body_ops

    def test_does_not_hoist_statements_depending_on_body_state(self):
        db = Sym("db")
        b = IRBuilder()
        v = b.emit("var_new", [1])
        r = b.emit("var_read", [v])
        x = b.emit("add", [r, 1])
        program = make_program(b.finish(x), [db], "ScaLite")
        hoisted = MemoryAllocationHoisting(SCALITE).run(program, context())
        assert all(s.expr.op != "add" for s in hoisted.hoisted.stmts)


class TestBranchlessBooleans:
    def test_boolean_and_becomes_bitwise(self):
        b = IRBuilder()
        v = b.emit("var_new", [1])
        r = b.emit("var_read", [v])
        c1 = b.emit("lt", [r, 10])
        c2 = b.emit("gt", [r, 0])
        both = b.emit("and_", [c1, c2])
        program = make_program(b.finish(both), [], "C.Py")
        rewritten = BranchlessBooleans(C_PY).run(program, context())
        counts = count_ops(rewritten)
        assert "band" in counts and "and_" not in counts

    def test_non_boolean_operands_left_alone(self):
        b = IRBuilder()
        v = b.emit("var_new", [1])
        r = b.emit("var_read", [v])
        both = b.emit("and_", [r, Const(5)])
        program = make_program(b.finish(both), [], "C.Py")
        rewritten = BranchlessBooleans(C_PY).run(program, context())
        assert "and_" in count_ops(rewritten)
