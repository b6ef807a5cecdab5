"""Unit tests for the analysis-driven passes: dataflow folding and LICM."""

from repro.ir import IRBuilder, Const, Sym, make_program
from repro.ir.traversal import count_ops
from repro.stack import CompilationContext, OptimizationFlags, SCALITE
from repro.transforms.folding import DataflowFolding
from repro.transforms.licm import LoopInvariantHoisting


def context():
    return CompilationContext(flags=OptimizationFlags())


def _loop_body_ops(program):
    for stmt in program.body.stmts:
        if stmt.expr.op == "for_range":
            return [s.expr.op for s in stmt.expr.blocks[0].stmts]
    raise AssertionError("no for_range in program body")


class TestDataflowFolding:
    def test_provably_true_branch_unwraps_with_justification(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        cond = b.emit("lt", [x, 100])          # [3,3] < [100,100]: provable
        result = b.if_(cond, lambda: b.const(5), lambda: b.const(9))
        program = make_program(b.finish(result), [], "ScaLite")
        ctx = context()
        folded = DataflowFolding(SCALITE).run(program, ctx)
        counts = count_ops(folded)
        assert "if_" not in counts
        assert "lt" not in counts              # the predicate folded too
        assert isinstance(folded.body.result, Const)
        assert folded.body.result.value == 5
        justifications = ctx.info["dataflow_justifications"]
        assert any("provably true" in text for text in justifications.values())

    def test_unknown_predicate_is_left_alone(self):
        b = IRBuilder()
        db = Sym("db")
        n = b.emit("table_size", [db], attrs={"table": "t"})  # [0, +inf]: no verdict
        cond = b.emit("lt", [n, 100])
        program = make_program(b.finish(cond), [db], "ScaLite")
        assert DataflowFolding(SCALITE).run(program, context()) is program

    def test_effectful_dropped_arm_blocks_the_unwrap(self):
        """A condition that folds in this run, but that the value analysis
        of the input program does not decide (it has no string intervals)."""
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        cond = b.emit("eq", [Const("a"), Const("a")])
        b.if_(cond, lambda: b.emit("add", [x, 1]),
              lambda: b.emit("print_", [Const("side effect")]))
        program = make_program(b.finish(None), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        counts = count_ops(folded)
        # the predicate folds, but dropping an arm with I/O is not allowed
        assert counts["if_"] == 1
        assert counts["print_"] == 1
        # until the branch tests the literal, which never selects that arm
        # (the taken arm's ``add`` of two literals folds in the same run)
        refolded = DataflowFolding(SCALITE).run(folded, context())
        assert count_ops(refolded) == {}

    def test_a_decided_condition_drops_the_effectful_arm_in_one_run(self):
        """The value analysis of the input program proves ``3 < 100``: the
        arm with I/O never runs, and goes with its justification recorded."""
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        cond = b.emit("lt", [x, 100])
        branch = b.if_(cond, lambda: b.emit("add", [x, 1]),
                       lambda: b.emit("print_", [Const("side effect")]))
        program = make_program(b.finish(None), [], "ScaLite")
        ctx = context()
        assert count_ops(DataflowFolding(SCALITE).run(program, ctx)) == {}
        assert "provably true" in ctx.info["dataflow_justifications"][branch.id]

    def test_a_literal_condition_drops_the_writing_arm_it_never_selects(self):
        """Q13's ``if False:`` around a slot update: the arm never runs."""
        b = IRBuilder()
        out = b.emit("list_new", [])
        b.if_(False, lambda: b.emit("list_append", [out, 1]) and None, lambda: None)
        program = make_program(b.finish(out), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert count_ops(folded) == {"list_new": 1}

    def test_a_true_literal_keeps_the_writing_arm_and_drops_the_other(self):
        """The arm a literal selects is inlined, writes and all; the write in
        the arm it never selects goes with that arm."""
        b = IRBuilder()
        out = b.emit("list_new", [])
        b.if_(True, lambda: b.emit("list_append", [out, 1]) and None,
              lambda: b.emit("list_append", [out, 2]) and None)
        program = make_program(b.finish(out), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert count_ops(folded) == {"list_new": 1, "list_append": 1}
        append, = [stmt.expr for stmt in folded.body.stmts if stmt.expr.op == "list_append"]
        assert append.args[1].value == 1

    def test_none_result_unwrap_skipped_when_sym_is_used(self):
        """Unwrapping a branch whose arm yields None would substitute a None
        literal into the consumer; the folder keeps the branch instead."""
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        cond = b.emit("lt", [x, 100])
        def then_arm():
            b.emit("add", [x, 1])              # emits, returns no result

        branch = b.if_(cond, then_arm)
        b.emit("print_", [branch])
        program = make_program(b.finish(None), [], "ScaLite")
        folded = DataflowFolding(SCALITE).run(program, context())
        assert count_ops(folded)["if_"] == 1


class TestLoopInvariantHoisting:
    def test_invariant_binding_hoists_in_front_of_the_loop(self):
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")
        x = b.emit("add", [2, 3], hint="x")    # [5,5], non-null

        def body(i):
            y = b.emit("add", [x, 7], hint="y")
            b.emit("list_append", [out, y])

        b.for_range(0, 100, body)
        program = make_program(b.finish(out), [], "ScaLite")
        hoisted = LoopInvariantHoisting(SCALITE).run(program, context())
        assert _loop_body_ops(hoisted) == ["list_append"]
        # the hoisted binding keeps its symbol, just moves to the outer block
        outer_hints = [s.sym.hint for s in hoisted.body.stmts]
        assert "y" in outer_hints

    def test_index_dependent_binding_stays_inside(self):
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")

        def body(i):
            y = b.emit("add", [i, 7])
            b.emit("list_append", [out, y])

        b.for_range(0, 100, body)
        program = make_program(b.finish(out), [], "ScaLite")
        assert LoopInvariantHoisting(SCALITE).run(program, context()) is program

    def test_non_whitelisted_op_is_not_hoisted(self):
        """div can raise on a zero divisor, so hoisting it in front of a
        possibly zero-iteration loop would introduce an exception."""
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")
        x = b.emit("add", [2, 3])

        def body(i):
            y = b.emit("div", [100, x])
            b.emit("list_append", [out, y])

        b.for_range(0, 100, body)
        program = make_program(b.finish(out), [], "ScaLite")
        assert LoopInvariantHoisting(SCALITE).run(program, context()) is program

    def test_possibly_null_operand_is_not_hoisted(self):
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")
        var = b.emit("var_new", [0], hint="v")
        x = b.emit("var_read", [var])          # fact is top: maybe-null

        def body(i):
            y = b.emit("add", [x, 7])
            b.emit("list_append", [out, y])

        b.for_range(0, 100, body)
        program = make_program(b.finish(out), [], "ScaLite")
        assert LoopInvariantHoisting(SCALITE).run(program, context()) is program
