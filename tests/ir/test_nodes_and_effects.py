"""Unit tests for IR node structures, effects and the op registry."""
import pytest

from repro.ir import Const, Expr, Sym, effect_of, is_registered
from repro.ir.effects import ALLOC, CONTROL, IO, PURE, READ, WRITE
from repro.ir.ops import REGISTRY, OpRegistry


class TestEffects:
    def test_pure_is_pure(self):
        assert PURE.pure
        assert PURE.removable_if_unused

    def test_write_is_not_removable(self):
        assert not WRITE.pure
        assert not WRITE.removable_if_unused

    def test_io_is_not_removable(self):
        assert not IO.removable_if_unused

    def test_read_is_removable_but_not_pure(self):
        assert not READ.pure
        assert READ.removable_if_unused

    def test_alloc_is_removable_but_not_pure(self):
        assert not ALLOC.pure
        assert ALLOC.removable_if_unused

    def test_union_combines_flags(self):
        e = READ.union(WRITE)
        assert e.reads and e.writes and not e.io

    def test_control_blocks_reordering(self):
        assert not CONTROL.can_reorder_with_reads


class TestRegistry:
    def test_core_ops_registered(self):
        for op in ("add", "mul", "eq", "if_", "for_range", "list_append",
                   "mmap_add", "hashmap_agg_update", "table_column",
                   "access_partition", "strdict_code", "dense_agg_update"):
            assert is_registered(op), op

    def test_effects_of_key_ops(self):
        assert effect_of("add").pure
        assert effect_of("list_append").writes
        assert effect_of("array_get").reads
        assert effect_of("list_new").allocates
        assert effect_of("print_").io
        assert effect_of("for_range").control

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            effect_of("not_an_op")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            REGISTRY.register("add", "arith", arity=2)

    def test_block_arity_recorded(self):
        assert REGISTRY.get("if_").blocks == (0, 0)
        assert REGISTRY.get("for_range").blocks == (1,)
        assert REGISTRY.get("add").blocks == ()

    def test_mutated_argument_on_a_non_writing_op_rejected(self):
        with pytest.raises(ValueError, match="does not write"):
            OpRegistry().register("peek", "list", READ, arity=1, mutated=0)

    def test_loop_on_a_non_control_op_rejected(self):
        with pytest.raises(ValueError, match="not a control op"):
            OpRegistry().register("spin", "list", WRITE, arity=1, mutated=0,
                                  loop=True)

    def test_blocks_on_a_non_control_op_rejected(self):
        with pytest.raises(ValueError, match="not a control op"):
            OpRegistry().register("apply", "list", READ, arity=1, blocks=(1,))

    def test_control_op_without_blocks_rejected(self):
        with pytest.raises(ValueError, match="without nested blocks"):
            OpRegistry().register("jump", "control", CONTROL, arity=1)


class TestNodes:
    def test_sym_identity_semantics(self):
        a, b = Sym("x"), Sym("x")
        assert a != b
        assert a == a
        assert len({a, b}) == 2

    def test_sym_names_are_unique_and_readable(self):
        a, b = Sym("x"), Sym("y")
        assert a.name.startswith("x")
        assert b.name.startswith("y")
        assert a.name != b.name

    def test_const_equality_is_structural(self):
        assert Const(1) == Const(1)
        assert Const(1) != Const(2)

    def test_expr_cse_key_ignores_attr_order(self):
        s = Sym("x")
        e1 = Expr("record_get", (s,), {"field": "a", "layout": "row"})
        e2 = Expr("record_get", (s,), {"layout": "row", "field": "a"})
        assert e1.cse_key() == e2.cse_key()

    def test_expr_with_blocks_has_no_cse_key(self):
        from repro.ir.nodes import Block
        e = Expr("if_", (Const(True),), blocks=(Block(), Block()))
        assert e.cse_key() is None

    def test_expr_with_unhashable_attr_has_no_cse_key(self):
        class Weird:
            __hash__ = None

        e = Expr("add", (Const(1),), {"weird": Weird()})
        assert e.cse_key() is None

    def test_expr_attr_lists_are_normalised_for_keys(self):
        e1 = Expr("record_new", (Const(1),), {"fields": ["a", "b"]})
        e2 = Expr("record_new", (Const(1),), {"fields": ("a", "b")})
        assert e1.cse_key() == e2.cse_key()
