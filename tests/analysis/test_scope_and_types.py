"""Unit tests for the scope checker and the type/signature checker."""
import pytest

from repro.analysis import VerificationError, verify_program
from repro.analysis.scope import check_scopes
from repro.analysis.typecheck import check_types
from repro.ir import IRBuilder, make_program
from repro.ir.ops import REGISTRY
from repro.ir.nodes import Block, Const, Expr, Stmt, Sym
from repro.ir.types import INT, STRING


def simple_program():
    b = IRBuilder()
    db = Sym("db")
    n = b.emit("table_size", [db], attrs={"table": "R"})
    total = b.emit("add", [n, 1])
    return make_program(b.finish(total), [db], "scalite"), db


class TestSignatureTable:
    """The shape the checker enforces is the op's registry row."""

    def test_signatures_record_unparser_requirements(self):
        assert REGISTRY.get("str_like").attrs == ("pattern",)
        assert REGISTRY.get("record_new").attrs == ("fields",)
        assert REGISTRY.get("for_range").blocks == (1,)
        assert REGISTRY.get("hashmap_agg_foreach").blocks == (2,)
        assert REGISTRY.get("var_write").mutated == 0

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.get("not_an_op")


class TestScopeChecker:
    def test_clean_program_passes(self):
        program, _ = simple_program()
        check_scopes(program)

    def test_use_before_definition_rejected(self):
        dangling = Sym("ghost", INT)
        db = Sym("db")
        use = Stmt(Sym("y", INT), Expr("add", (dangling, Const(1))))
        program = make_program(Block([use], use.sym), [db], "scalite")
        with pytest.raises(VerificationError) as exc:
            check_scopes(program)
        assert exc.value.check == "scope"
        assert "ghost" in str(exc.value)

    def test_double_binding_rejected(self):
        db = Sym("db")
        x = Sym("x", INT)
        stmts = [Stmt(x, Expr("add", (Const(1), Const(2)))),
                 Stmt(x, Expr("add", (Const(3), Const(4))))]
        program = make_program(Block(stmts, x), [db], "scalite")
        with pytest.raises(VerificationError, match="single-assignment"):
            check_scopes(program)

    def test_nested_binding_does_not_escape_its_block(self):
        """A symbol bound inside a loop body must not be used after it."""
        b = IRBuilder()
        db = Sym("db")
        n = b.emit("table_size", [db], attrs={"table": "R"})
        leaked = {}

        def body(i):
            leaked["sym"] = b.emit("add", [i, 1])

        b.for_range(0, n, body)
        escape = b.emit("add", [leaked["sym"], 1])
        program = make_program(b.finish(escape), [db], "scalite")
        with pytest.raises(VerificationError) as exc:
            check_scopes(program)
        assert exc.value.check == "scope"

    def test_hoisted_bindings_visible_to_body(self):
        db = Sym("db")
        col = Sym("col")
        hoisted = Block([Stmt(col, Expr("table_column", (db,),
                                        {"table": "R", "column": "r_id"}))])
        use = Stmt(Sym("v", INT), Expr("array_get", (col, Const(0))))
        program = make_program(Block([use], use.sym), [db], "scalite",
                               hoisted=hoisted)
        check_scopes(program)

    def test_phase_attribution_via_verify_program(self):
        dangling = Sym("ghost", INT)
        db = Sym("db")
        use = Stmt(Sym("y", INT), Expr("add", (dangling, Const(1))))
        program = make_program(Block([use], use.sym), [db], "scalite")
        with pytest.raises(VerificationError) as exc:
            verify_program(program, phase="dce[ScaLite]")
        assert exc.value.phase == "dce[ScaLite]"
        assert "after dce[ScaLite]" in str(exc.value)


def _one_stmt_program(expr, extra_stmts=()):
    db = Sym("db")
    sym = Sym("out")
    stmts = list(extra_stmts) + [Stmt(sym, expr)]
    return make_program(Block(stmts, sym), [db], "scalite")


class TestTypeChecker:
    def test_clean_program_passes(self):
        program, _ = simple_program()
        check_types(program)

    def test_wrong_arity_rejected(self):
        program = _one_stmt_program(Expr("add", (Const(1),)))
        with pytest.raises(VerificationError, match="2 argument"):
            check_types(program)

    def test_missing_required_attr_rejected(self):
        program = _one_stmt_program(Expr("str_like", (Const("abc"),)))
        with pytest.raises(VerificationError, match="pattern"):
            check_types(program)

    def test_string_in_arithmetic_rejected(self):
        program = _one_stmt_program(Expr("add", (Const("oops"), Const(1))))
        with pytest.raises(VerificationError, match="arithmetic"):
            check_types(program)

    def test_string_numeric_comparison_rejected(self):
        program = _one_stmt_program(Expr("lt", (Const("abc"), Const(3))))
        with pytest.raises(VerificationError, match="mixes a string"):
            check_types(program)

    def test_eq_against_none_allowed(self):
        """The unparser special-cases eq/ne against None (is None)."""
        program = _one_stmt_program(Expr("eq", (Const(1), Const(None))))
        check_types(program)

    def test_record_get_of_missing_field_rejected(self):
        rec = Sym("rec")
        build = Stmt(rec, Expr("record_new", (Const(1), Const(2)),
                               {"fields": ("a", "b")}))
        program = _one_stmt_program(
            Expr("record_get", (rec,), {"field": "c"}), [build])
        with pytest.raises(VerificationError, match="record_new only"):
            check_types(program)

    def test_record_new_field_count_mismatch_rejected(self):
        program = _one_stmt_program(
            Expr("record_new", (Const(1),), {"fields": ("a", "b")}))
        with pytest.raises(VerificationError, match="record_new declares"):
            check_types(program)

    def test_row_layout_record_get_checks_field_list(self):
        rec = Sym("rec")
        build = Stmt(rec, Expr("record_new", (Const(1), Const(2)),
                               {"fields": ("a", "b"), "layout": "row"}))
        program = _one_stmt_program(
            Expr("record_get", (rec,),
                 {"field": "z", "layout": "row", "fields": ("a", "b")}),
            [build])
        with pytest.raises(VerificationError, match="row-layout"):
            check_types(program)

    def test_tuple_get_out_of_range_rejected(self):
        tup = Sym("tup")
        build = Stmt(tup, Expr("tuple_new", (Const(1), Const(2))))
        program = _one_stmt_program(
            Expr("tuple_get", (tup,), {"index": 5}), [build])
        with pytest.raises(VerificationError, match="out of range"):
            check_types(program)

    def test_wrong_block_count_rejected(self):
        program = _one_stmt_program(Expr("if_", (Const(True),), blocks=()))
        with pytest.raises(VerificationError, match="nested block"):
            check_types(program)

    def test_block_param_count_rejected(self):
        body = Block([], Const(None), params=())  # for_range needs 1 param
        program = _one_stmt_program(
            Expr("for_range", (Const(0), Const(3)), blocks=(body,)))
        with pytest.raises(VerificationError, match="block\\[0\\]"):
            check_types(program)

    def test_schema_resolution_catches_unknown_column(self, tiny_catalog):
        program = _one_stmt_program(
            Expr("table_column", (Sym("db"),),
                 {"table": "R", "column": "nope"}))
        # without a catalog the reference is not resolvable -> accepted
        check_types(program)
        with pytest.raises(VerificationError, match="unknown column"):
            check_types(program, tiny_catalog)

    def test_schema_resolution_catches_unknown_table(self, tiny_catalog):
        program = _one_stmt_program(
            Expr("table_size", (Sym("db"),), {"table": "NOPE"}))
        with pytest.raises(VerificationError, match="unknown table"):
            check_types(program, tiny_catalog)

    def test_inference_ignores_stale_annotations(self):
        """Transforms may leave stale types; only *derived* types fire rules."""
        x = Sym("x", STRING)  # annotation says string...
        build = Stmt(x, Expr("year_of_date", (Const(19940101),)))  # ...but it is an int
        program = _one_stmt_program(Expr("add", (x, Const(1))), [build])
        check_types(program)

    def test_non_atom_argument_rejected(self):
        program = _one_stmt_program(
            Expr("add", (Expr("add", (Const(1), Const(2))), Const(3))))
        with pytest.raises(VerificationError, match="non-atom"):
            check_types(program)
