"""Unit tests for the ANF builder and its hash-consing behaviour."""
import pytest

from repro.ir import IRBuilder, Sym, make_program
from repro.ir.types import BOOL, FLOAT, INT, STRING, UNIT


class TestConstants:
    def test_const_type_inference_int(self):
        b = IRBuilder()
        assert b.const(3).type is INT

    def test_const_type_inference_float(self):
        b = IRBuilder()
        assert b.const(3.5).type is FLOAT

    def test_const_type_inference_bool(self):
        b = IRBuilder()
        assert b.const(True).type is BOOL

    def test_const_type_inference_string(self):
        b = IRBuilder()
        assert b.const("abc").type is STRING

    def test_const_type_inference_none(self):
        b = IRBuilder()
        assert b.const(None).type is UNIT

    def test_as_atom_passes_through_existing_atoms(self):
        b = IRBuilder()
        c = b.const(1)
        assert b.as_atom(c) is c
        sym = b.emit("add", [1, 2])
        assert b.as_atom(sym) is sym


class TestCse:
    def test_pure_expressions_are_shared(self):
        """The paper's ANF example: R_A * R_B is computed once, used twice."""
        b = IRBuilder()
        ra, rb = b.emit("var_new", [0.0]), b.emit("var_new", [0.0])
        a1 = b.emit("mul", [ra, rb])
        a2 = b.emit("mul", [ra, rb])
        assert a1 is a2

    def test_different_args_not_shared(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        y = b.emit("add", [1, 3])
        assert x is not y

    def test_different_attrs_not_shared(self):
        b = IRBuilder()
        r = b.emit("var_new", [0])
        x = b.emit("record_get", [r], attrs={"field": "a"})
        y = b.emit("record_get", [r], attrs={"field": "b"})
        # record_get has a read effect, so it is never CSE'd anyway
        assert x is not y

    def test_effectful_ops_never_shared(self):
        b = IRBuilder()
        l1 = b.emit("list_new", [])
        l2 = b.emit("list_new", [])
        assert l1 is not l2

    def test_reads_never_shared(self):
        b = IRBuilder()
        arr = b.emit("array_new", [10])
        g1 = b.emit("array_get", [arr, 0])
        g2 = b.emit("array_get", [arr, 0])
        assert g1 is not g2

    def test_sharing_across_nested_scopes_from_outer(self):
        b = IRBuilder()
        x = b.emit("add", [1, 2])
        captured = {}

        def body(i):
            captured["inner"] = b.emit("add", [1, 2])

        b.for_range(0, 10, body)
        assert captured["inner"] is x

    def test_no_sharing_between_sibling_scopes(self):
        b = IRBuilder()
        inner_syms = []

        def then_branch():
            inner_syms.append(b.emit("add", [40, 2]))

        def else_branch():
            inner_syms.append(b.emit("add", [40, 2]))

        b.if_(b.const(True), then_branch, else_branch)
        assert inner_syms[0] is not inner_syms[1]

    def test_paper_aggregation_example_sharing(self):
        """agg1 += A*B; agg2 += A*B*(1-C); agg3 += D*(1-C): shares A*B and 1-C."""
        b = IRBuilder()
        a = b.emit("var_read", [b.emit("var_new", [1.0])], hint="A")
        bb = b.emit("var_read", [b.emit("var_new", [2.0])], hint="B")
        c = b.emit("var_read", [b.emit("var_new", [3.0])], hint="C")
        d = b.emit("var_read", [b.emit("var_new", [4.0])], hint="D")
        x1 = b.emit("mul", [a, bb])
        x2 = b.emit("sub", [1, c])
        x3 = b.emit("mul", [b.emit("mul", [a, bb]), b.emit("sub", [1, c])])
        x4 = b.emit("mul", [d, b.emit("sub", [1, c])])
        block = b.finish(x4)
        # only 4 var_new + 4 var_read + 4 distinct pure multiplications/subtractions
        pure_ops = [s for s in block.stmts if s.expr.op in ("mul", "sub")]
        assert len(pure_ops) == 4


class TestBlockStructure:
    def test_emit_validates_block_count(self):
        b = IRBuilder()
        with pytest.raises(ValueError):
            b.emit("if_", [b.const(True)], blocks=[])

    def test_unknown_op_rejected(self):
        b = IRBuilder()
        with pytest.raises(KeyError):
            b.emit("definitely_not_an_op", [])

    def test_finish_with_open_scope_raises(self):
        b = IRBuilder()
        cm = b.new_block()
        cm.__enter__()
        with pytest.raises(RuntimeError):
            b.finish()

    def test_for_range_creates_body_with_param(self):
        b = IRBuilder()
        seen = []

        def body(i):
            seen.append(i)
            b.emit("array_set", [b.emit("array_new", [10]), i, i])

        b.for_range(0, 10, body)
        block = b.finish()
        loop_stmt = [s for s in block.stmts if s.expr.op == "for_range"][0]
        assert loop_stmt.expr.blocks[0].params == (seen[0],)

    def test_if_returns_value(self):
        b = IRBuilder()
        cond = b.emit("lt", [1, 2])
        result = b.if_(cond, lambda: b.const(10), lambda: b.const(20), tpe=INT)
        block = b.finish(result)
        if_stmt = block.stmts[-1]
        assert if_stmt.expr.op == "if_"
        assert if_stmt.expr.blocks[0].result.value == 10
        assert if_stmt.expr.blocks[1].result.value == 20


class TestProgram:
    def test_program_repr(self):
        b = IRBuilder()
        p = make_program(b.finish(b.const(0)), [Sym("db")], "c.py")
        assert "c.py" in repr(p)
