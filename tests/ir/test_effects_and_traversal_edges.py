"""Edge-case coverage for the effect algebra and the ANF traversals.

These are the primitives every optimization *and* the static verifier lean
on; the cases here pin down the behaviours the verifier's legality argument
depends on (union monotonicity, reorderability, hoisted-first iteration
order, substitution not touching binders).
"""
from repro.ir import IRBuilder, make_program
from repro.ir.effects import (ALLOC, CONTROL, Effect, IO, PURE, READ,
                              READ_WRITE, WRITE)
from repro.ir.nodes import Block, Const, Expr, Stmt, Sym
from repro.ir.traversal import (block_effect, iter_program_stmts, iter_stmts,
                                substitute_block, used_syms)
from repro.ir.types import INT


class TestEffectAlgebra:
    def test_union_is_commutative_and_idempotent(self):
        for left in (PURE, READ, WRITE, ALLOC, IO, CONTROL):
            for right in (PURE, READ, WRITE, ALLOC, IO, CONTROL):
                assert left.union(right) == right.union(left)
            assert left.union(left) == left

    def test_union_with_pure_is_identity(self):
        for effect in (READ, WRITE, ALLOC, IO, CONTROL):
            assert effect.union(PURE) == effect

    def test_union_never_loses_flags(self):
        combined = READ.union(WRITE).union(IO).union(ALLOC)
        assert combined.reads and combined.writes and combined.io \
            and combined.allocates

    def test_reorderability_of_each_summary(self):
        assert PURE.can_reorder_with_reads
        assert READ.can_reorder_with_reads
        assert ALLOC.can_reorder_with_reads
        assert not WRITE.can_reorder_with_reads
        assert not IO.can_reorder_with_reads
        assert not READ_WRITE.can_reorder_with_reads
        assert not CONTROL.can_reorder_with_reads

    def test_removability_matches_reorderability(self):
        """The two legality predicates agree: both forbid writes/io/control."""
        for effect in (PURE, READ, WRITE, ALLOC, IO, CONTROL, READ_WRITE,
                       Effect(reads=True, allocates=True)):
            assert effect.removable_if_unused == effect.can_reorder_with_reads

    def test_alloc_removable_but_not_pure(self):
        assert ALLOC.removable_if_unused and not ALLOC.pure


class TestTraversalEdgeCases:
    def test_iter_stmts_on_empty_block(self):
        assert list(iter_stmts(Block())) == []

    def test_iter_program_stmts_hoisted_first(self):
        db = Sym("db")
        hoisted_stmt = Stmt(Sym("h", INT), Expr("table_size", (db,),
                                                {"table": "R"}))
        body_stmt = Stmt(Sym("b", INT), Expr("add", (hoisted_stmt.sym,
                                                     Const(1))))
        program = make_program(Block([body_stmt], body_stmt.sym), [db],
                               "scalite", hoisted=Block([hoisted_stmt]))
        order = [stmt.sym.hint for stmt, _ in iter_program_stmts(program)]
        assert order == ["h", "b"]

    def test_deeply_nested_blocks_are_walked_in_order(self):
        b = IRBuilder()
        db = Sym("db")
        n = b.emit("table_size", [db], attrs={"table": "R"})

        def outer(i):
            def inner(j):
                b.emit("add", [i, j], hint="deep")

            b.for_range(0, n, inner, hint="j")

        b.for_range(0, n, outer, hint="i")
        program = make_program(b.finish(), [db], "scalite")
        ops = [stmt.expr.op for stmt, _ in iter_program_stmts(program)]
        assert ops == ["table_size", "for_range", "for_range", "add"]

    def test_used_syms_of_a_block_with_only_a_result(self):
        x = Sym("x", INT)
        assert used_syms(Block([], x)) == {x}

    def test_substitute_block_rewrites_uses_not_binders(self):
        x, y = Sym("x", INT), Sym("y", INT)
        stmt = Stmt(y, Expr("add", (x, x)))
        block = Block([stmt], y)
        replaced = substitute_block(block, {x: Const(7)})
        assert replaced.stmts[0].sym is y  # binder untouched
        assert all(isinstance(arg, Const) for arg in
                   replaced.stmts[0].expr.args)

    def test_substitute_block_reaches_nested_blocks(self):
        x = Sym("x", INT)
        inner = Block([Stmt(Sym("u", INT), Expr("add", (x, Const(1))))])
        outer_stmt = Stmt(Sym("loop"), Expr(
            "for_range", (Const(0), Const(2)), blocks=(inner,)))
        outer = Block([outer_stmt])
        replaced = substitute_block(outer, {x: Const(9)})
        nested_args = replaced.stmts[0].expr.blocks[0].stmts[0].expr.args
        assert nested_args[0] == Const(9)

    def test_block_effect_unions_nested_blocks(self):
        lst = Sym("lst")
        inner = Block([Stmt(Sym("w"), Expr("list_append", (lst, Const(1))))])
        loop = Stmt(Sym("loop"), Expr("for_range", (Const(0), Const(2)),
                                      blocks=(inner,)))
        effect = block_effect(Block([loop]))
        assert effect.writes and effect.control

    def test_block_effect_of_empty_block_is_pure(self):
        assert block_effect(Block()).pure
