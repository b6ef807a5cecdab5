"""Unit tests for the generic IR optimizations (DCE, literal folding,
allocation hoisting)."""

from repro.ir import IRBuilder, Const, make_program
from repro.ir.nodes import Sym
from repro.ir.traversal import count_ops
from repro.stack import CompilationContext, OptimizationFlags, SCALITE
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.folding import DataflowFolding
from repro.transforms.memory_hoisting import MemoryAllocationHoisting


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


class TestLiteralFolding:
    """``DataflowFolding`` folds a pure op whose arguments are all literals;
    chains of such ops fold in one run."""

    def test_folds_constant_arithmetic(self):
        b = IRBuilder()
        x = b.emit("add", [2, 3])
        y = b.emit("mul", [x, 4])
        program = make_program(b.finish(y), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert count_ops(folded) == {}
        assert folded.body.result == Const(20)
        assert DataflowFolding(SCALITE).run(folded, context()) is folded

    def test_folds_comparisons_and_logic(self):
        b = IRBuilder()
        c = b.emit("lt", [1, 2])
        d = b.emit("and_", [c, Const(True)])
        program = make_program(b.finish(d), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert folded.body.result == Const(True)

    def test_division_by_zero_not_folded(self):
        b = IRBuilder()
        x = b.emit("div", [1, 0])
        program = make_program(b.finish(x), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert "div" in count_ops(folded)

    def test_mismatched_constant_types_not_folded(self):
        b = IRBuilder()
        x = b.emit("div", [Const("text"), Const(3)])
        y = b.emit("neg", [Const("text")])
        b.emit("add", [x, y])
        program = make_program(b.finish(Const(0)), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        counts = count_ops(folded)
        assert "div" in counts and "neg" in counts

    def test_non_constant_args_untouched(self):
        b = IRBuilder()
        v = b.emit("var_new", [1])
        x = b.emit("add", [b.emit("var_read", [v]), 2])
        program = make_program(b.finish(x), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert "add" in count_ops(folded)

    def test_year_of_date_folding(self):
        b = IRBuilder()
        x = b.emit("year_of_date", [19980902])
        program = make_program(b.finish(x), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert folded.body.result == Const(1998)


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

