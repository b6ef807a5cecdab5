"""Unit tests for IR traversal, symbol analysis and block rewriting."""
from repro.ir import IRBuilder, Const, make_program
from repro.ir.traversal import (block_effect, count_ops, iter_program_stmts, iter_stmts,
                                ops_used, rewrite_program, substitute_block, used_syms)
from repro.ir.nodes import Sym


def build_loop_program():
    """for i in range(0, n): acc += arr[i]"""
    b = IRBuilder()
    db = Sym("db")
    n = b.emit("table_size", [db], attrs={"table": "t"})
    arr = b.emit("table_column", [db], attrs={"table": "t", "column": "c"})
    acc = b.emit("var_new", [0])

    def body(i):
        v = b.emit("array_get", [arr, i])
        cur = b.emit("var_read", [acc])
        b.emit("var_write", [acc, b.emit("add", [cur, v])])

    b.for_range(0, n, body)
    result = b.emit("var_read", [acc])
    return make_program(b.finish(result), [db], "scalite"), db


class TestSymbolAnalysis:
    def test_iter_stmts_recursive_covers_loop_body(self):
        program, _ = build_loop_program()
        ops = [s.expr.op for s, _ in iter_stmts(program.body)]
        assert "array_get" in ops
        assert "for_range" in ops

    def test_iter_stmts_non_recursive_skips_body(self):
        program, _ = build_loop_program()
        ops = [s.expr.op for s, _ in iter_stmts(program.body, recursive=False)]
        assert "array_get" not in ops

    def test_used_syms_includes_result(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        block = b.finish(x)
        assert x in used_syms(block)

    def test_count_ops_histogram(self):
        program, _ = build_loop_program()
        counts = count_ops(program)
        assert counts["var_write"] == 1
        assert counts["for_range"] == 1
        assert "add" in ops_used(program)

    def test_block_effect_summarises_nested_writes(self):
        program, _ = build_loop_program()
        eff = block_effect(program.body)
        assert eff.writes and eff.reads

    def test_iter_program_stmts_covers_hoisted(self):
        program, _ = build_loop_program()
        b = IRBuilder()
        sym = b.emit("list_new", [])
        program.hoisted = b.finish(sym)
        ops = [s.expr.op for s, _ in iter_program_stmts(program)]
        assert "list_new" in ops


class TestSubstitution:
    def test_substitute_block_replaces_uses_not_bindings(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        y = b.emit("mul", [x, 3])
        block = b.finish(y)
        replacement = Const(42)
        new_block = substitute_block(block, {x: replacement})
        mul_stmt = [s for s in new_block.stmts if s.expr.op == "mul"][0]
        assert mul_stmt.expr.args[0] == replacement
        # the binding of x itself is untouched
        assert new_block.stmts[0].sym is x

    def test_substitute_descends_into_nested_blocks(self):
        program, db = build_loop_program()
        new_body = substitute_block(program.body, {db: Const("DB")})
        ops = [s for s, _ in iter_stmts(new_body) if s.expr.op == "table_size"]
        assert ops[0].expr.args[0] == Const("DB")


class TestBlockRewriter:
    def test_identity_rewrite_preserves_structure(self):
        program, _ = build_loop_program()
        rewritten = rewrite_program(program, lambda stmt, rw: None)
        assert count_ops(rewritten) == count_ops(program)

    def test_rewrite_replaces_statement_and_updates_uses(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        y = b.emit("mul", [x, 3])
        program = make_program(b.finish(y), [], "scalite")

        def fold_add(stmt, rw):
            if stmt.expr.op == "add" and all(isinstance(a, Const) for a in stmt.expr.args):
                return Const(stmt.expr.args[0].value + stmt.expr.args[1].value)
            return None

        rewritten = rewrite_program(program, fold_add)
        assert "add" not in count_ops(rewritten)
        mul_stmt = rewritten.body.stmts[0]
        assert mul_stmt.expr.args[0] == Const(3)

    def test_rewrite_descends_into_loop_bodies(self):
        program, _ = build_loop_program()

        def replace_add_with_sub(stmt, rw):
            if stmt.expr.op == "add":
                return rw.emit("sub", list(stmt.expr.args), hint="m")
            return None

        rewritten = rewrite_program(program, replace_add_with_sub)
        counts = count_ops(rewritten)
        assert "add" not in counts
        assert counts["sub"] == 1

    def test_rewrite_program_sets_language(self):
        program, _ = build_loop_program()
        rewritten = rewrite_program(program, lambda s, r: None, language="c.py")
        assert rewritten.language == "c.py"
