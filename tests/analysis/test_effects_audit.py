"""Unit tests for the effect auditor: declarations and pass legality."""
import pytest

from repro.analysis import VerificationError
from repro.analysis.effects_audit import (audit_effects, audit_transition,
                                          effective_effect)
from repro.ir import IRBuilder, make_program
from repro.ir.nodes import Block, Const, Expr, Stmt, Sym
from repro.ir.types import INT


def program_of(stmts, result, params=None):
    params = params if params is not None else [Sym("db")]
    return make_program(Block(list(stmts), result), params, "scalite")


def writer_program():
    """list_new; loop { list_append }; return the list."""
    b = IRBuilder()
    db = Sym("db")
    out = b.emit("list_new", [])
    n = b.emit("table_size", [db], attrs={"table": "R"})

    def body(i):
        b.emit("list_append", [out, i])

    b.for_range(0, n, body)
    return make_program(b.finish(out), [db], "scalite"), out


class TestEffectiveEffect:
    def test_plain_op_uses_registered_effect(self):
        assert effective_effect(Expr("add", (Const(1), Const(2)))).pure
        assert effective_effect(Expr("list_append", ())).writes

    def test_control_with_pure_arms_is_effectively_pure(self):
        then = Block([Stmt(Sym("a", INT), Expr("add", (Const(1), Const(2))))])
        other = Block([])
        expr = Expr("if_", (Const(True),), blocks=(then, other))
        assert effective_effect(expr).removable_if_unused

    def test_control_with_writing_arm_is_not_removable(self):
        lst = Sym("lst")
        then = Block([Stmt(Sym("a"), Expr("list_append", (lst, Const(1))))])
        expr = Expr("if_", (Const(True),), blocks=(then, Block([])))
        assert not effective_effect(expr).removable_if_unused

    def test_nested_control_effects_propagate(self):
        lst = Sym("lst")
        inner = Expr("if_", (Const(True),), blocks=(
            Block([Stmt(Sym("a"), Expr("list_append", (lst, Const(1))))]),
            Block([])))
        outer = Expr("for_range", (Const(0), Const(3)), blocks=(
            Block([Stmt(Sym("b"), inner)], params=(Sym("i", INT),)),))
        assert effective_effect(outer).writes


class TestDeclarationAudit:
    def test_clean_program_passes(self):
        program, _ = writer_program()
        audit_effects(program)

    def test_write_to_constant_rejected(self):
        stmt = Stmt(Sym("w"), Expr("list_append", (Const(3), Const(1))))
        with pytest.raises(VerificationError, match="mutates the constant"):
            audit_effects(program_of([stmt], stmt.sym))

    def test_var_write_without_var_new_rejected(self):
        ghost = Sym("ghost")
        stmt = Stmt(Sym("w"), Expr("var_write", (ghost, Const(1))))
        with pytest.raises(VerificationError, match="no preceding var_new"):
            audit_effects(program_of([stmt], stmt.sym))

    def test_control_op_without_blocks_rejected(self):
        stmt = Stmt(Sym("c"), Expr("for_range", (Const(0), Const(3))))
        with pytest.raises(VerificationError, match="no nested blocks"):
            audit_effects(program_of([stmt], stmt.sym))


class TestSharedStructuresAreReadOnly:
    """Catalog-resident structures (``shared_result`` ops) are shared by every
    query, request and thread: a write whose target derives from one is a
    verifier error, however the target was reached."""

    PARTITION = {"table": "L", "column": "l_key", "key_lo": 1, "key_hi": 9,
                 "single": False}

    def _partition(self):
        return Stmt(Sym("part"), Expr("access_partition", (Sym("db"),),
                                      dict(self.PARTITION)))

    def test_reading_a_bucket_passes(self):
        part = self._partition()
        bucket = Stmt(Sym("bucket"), Expr("array_get", (part.sym, Const(0))))
        first = Stmt(Sym("pos"), Expr("array_get", (bucket.sym, Const(0))))
        audit_effects(program_of([part, bucket, first], first.sym))

    def test_append_to_a_bucket_rejected(self):
        part = self._partition()
        bucket = Stmt(Sym("bucket"), Expr("array_get", (part.sym, Const(0))))
        write = Stmt(Sym("w"), Expr("list_append", (bucket.sym, Const(7))))
        with pytest.raises(VerificationError, match="catalog-resident"):
            audit_effects(program_of([part, bucket, write], write.sym))

    def test_overwriting_a_slot_rejected(self):
        part = self._partition()
        write = Stmt(Sym("w"), Expr("array_set", (part.sym, Const(0), Const(None))))
        with pytest.raises(VerificationError, match="catalog-resident"):
            audit_effects(program_of([part, write], write.sym))

    def test_bucket_of_a_guarded_probe_rejected(self):
        """The bounds-guarded probe hands the bucket out of an ``if_`` arm."""
        part = self._partition()
        empty = Stmt(Sym("nobucket"), Expr("list_new", ()))
        slot = Sym("slot")
        hit = Block([Stmt(slot, Expr("array_get", (part.sym, Const(0))))], slot)
        probe = Stmt(Sym("bucket"), Expr("if_", (Const(True),),
                                         blocks=(hit, Block([], empty.sym))))
        write = Stmt(Sym("w"), Expr("list_append", (probe.sym, Const(7))))
        with pytest.raises(VerificationError, match="catalog-resident"):
            audit_effects(program_of([part, empty, probe, write], write.sym))

    def test_write_into_a_base_column_rejected(self):
        column = Stmt(Sym("col"), Expr("table_column", (Sym("db"),),
                                       {"table": "L", "column": "l_key"}))
        write = Stmt(Sym("w"), Expr("array_set", (column.sym, Const(0), Const(1))))
        with pytest.raises(VerificationError, match="catalog-resident"):
            audit_effects(program_of([column, write], write.sym))


class TestTransitionAudit:
    def test_identity_passes(self):
        program, _ = writer_program()
        audit_transition(program, program, phase="noop")

    def test_removing_pure_binding_is_legal(self):
        db = Sym("db")
        dead = Stmt(Sym("dead", INT), Expr("add", (Const(1), Const(2))))
        keep = Stmt(Sym("keep", INT), Expr("add", (Const(3), Const(4))))
        before = program_of([dead, keep], keep.sym, [db])
        after = program_of([keep], keep.sym, [db])
        audit_transition(before, after, phase="dce")

    def test_removing_write_rejected_with_phase(self):
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, Const(1))))
        before = program_of([lst, write], lst.sym, [db])
        after = program_of([lst], lst.sym, [db])
        with pytest.raises(VerificationError) as exc:
            audit_transition(before, after, phase="dce[ScaLite]")
        assert exc.value.phase == "dce[ScaLite]"
        assert "only removable_if_unused" in str(exc.value)

    def test_removing_if_with_writing_arm_rejected(self):
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        arm = Block([Stmt(Sym("a"), Expr("list_append", (lst.sym, Const(1))))])
        branch = Stmt(Sym("br"), Expr("if_", (Const(True),),
                                      blocks=(arm, Block([]))))
        before = program_of([lst, branch], lst.sym, [db])
        after = program_of([lst], lst.sym, [db])
        with pytest.raises(VerificationError, match="removable"):
            audit_transition(before, after, phase="branchless-booleans")

    def test_removing_if_with_pure_arms_is_legal(self):
        db = Sym("db")
        keep = Stmt(Sym("keep", INT), Expr("add", (Const(1), Const(2))))
        arm = Block([Stmt(Sym("a", INT), Expr("add", (Const(5), Const(6))))])
        branch = Stmt(Sym("br"), Expr("if_", (Const(True),),
                                      blocks=(arm, Block([]))))
        before = program_of([keep, branch], keep.sym, [db])
        after = program_of([keep], keep.sym, [db])
        audit_transition(before, after, phase="branchless-booleans")

    def test_reordering_writes_rejected(self):
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        first = Stmt(Sym("w1"), Expr("list_append", (lst.sym, Const(1))))
        second = Stmt(Sym("w2"), Expr("list_append", (lst.sym, Const(2))))
        before = program_of([lst, first, second], lst.sym, [db])
        after = program_of([lst, second, first], lst.sym, [db])
        with pytest.raises(VerificationError, match="reordered"):
            audit_transition(before, after, phase="hoisting")

    def test_moving_pure_code_across_writes_is_legal(self):
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, Const(1))))
        pure = Stmt(Sym("p", INT), Expr("add", (Const(1), Const(2))))
        before = program_of([lst, pure, write], lst.sym, [db])
        after = program_of([lst, write, pure], lst.sym, [db])
        audit_transition(before, after, phase="hoisting")

    def test_inserting_new_statements_is_legal(self):
        db = Sym("db")
        keep = Stmt(Sym("keep", INT), Expr("add", (Const(1), Const(2))))
        fresh = Stmt(Sym("v"), Expr("var_new", (Const(0),)))
        before = program_of([keep], keep.sym, [db])
        after = program_of([fresh, keep], keep.sym, [db])
        audit_transition(before, after, phase="scalar-replacement")

    def test_retargeting_a_write_rejected(self):
        """Straight-line code, no loop: the write survives and keeps its
        place, but now fills a different object than the one returned."""
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        other = Stmt(Sym("other"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, Const(1))))
        retargeted = Stmt(write.sym, Expr("list_append", (other.sym, Const(1))))
        before = program_of([lst, other, write], lst.sym, [db])
        after = program_of([lst, other, retargeted], lst.sym, [db])
        with pytest.raises(VerificationError, match="retargeted") as exc:
            audit_transition(before, after, phase="broken-retarget")
        assert exc.value.check == "effects"
        assert exc.value.phase == "broken-retarget"

    def test_write_through_a_folded_if_is_legal(self):
        """Folding the ``if_`` that handed the object out points the write at
        the arm's object: the old target's binding is gone, so it may."""
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        pick = Stmt(Sym("pick"), Expr("if_", (Const(True),), blocks=(
            Block([], lst.sym), Block([], lst.sym))))
        write = Stmt(Sym("w"), Expr("list_append", (pick.sym, Const(1))))
        folded = Stmt(write.sym, Expr("list_append", (lst.sym, Const(1))))
        before = program_of([lst, pick, write], lst.sym, [db])
        after = program_of([lst, folded], lst.sym, [db])
        audit_transition(before, after, phase="dataflow-folding")

    def test_retargeting_a_loop_write_to_a_loop_local_list_rejected(self):
        """Q16's retarget in miniature: the loop's append now fills a list
        allocated in the loop body, so the returned list stays empty."""
        db, i = Sym("db"), Sym("i", INT)
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        local = Stmt(Sym("local"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, i)))
        moved = Stmt(write.sym, Expr("list_append", (local.sym, i)))

        def loop(body):
            return Stmt(Sym("loop"), Expr("for_range", (Const(0), Const(9)),
                                          blocks=(Block(body, params=(i,)),)))

        before = program_of([lst, loop([write])], lst.sym, [db])
        after = program_of([lst, loop([local, moved])], lst.sym, [db])
        with pytest.raises(VerificationError, match=r"from lst\d* to local\d* ") as exc:
            audit_transition(before, after, phase="broken-retarget")
        assert exc.value.check == "effects"

    def test_retargeting_a_var_write_in_a_while_body_rejected(self):
        db = Sym("db")
        flag = Stmt(Sym("flag"), Expr("var_new", (Const(True),)))
        other = Stmt(Sym("other"), Expr("var_new", (Const(True),)))
        read = Stmt(Sym("r"), Expr("var_read", (flag.sym,)))
        write = Stmt(Sym("w"), Expr("var_write", (flag.sym, Const(False))))
        moved = Stmt(write.sym, Expr("var_write", (other.sym, Const(False))))

        def loop(body):
            return Stmt(Sym("loop"), Expr("while_", (), blocks=(
                Block([read], read.sym), Block(body))))

        before = program_of([flag, other, loop([write])], Const(None), [db])
        after = program_of([flag, other, loop([moved])], Const(None), [db])
        with pytest.raises(VerificationError, match=r"from flag\d* to other\d* "):
            audit_transition(before, after, phase="broken-retarget")

    def test_retargeting_a_write_off_a_loop_element_rejected(self):
        """A loop element has no binding of its own, so a pass can never
        have removed it: the write must keep filling the element."""
        db, elem = Sym("db"), Sym("e")
        lists = Stmt(Sym("lists"), Expr("list_new", ()))
        fresh = Stmt(Sym("fresh"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (elem, Const(1))))
        moved = Stmt(write.sym, Expr("list_append", (fresh.sym, Const(1))))

        def loop(body):
            return Stmt(Sym("loop"), Expr("list_foreach", (lists.sym,),
                                          blocks=(Block(body, params=(elem,)),)))

        before = program_of([lists, fresh, loop([write])], lists.sym, [db])
        after = program_of([lists, fresh, loop([moved])], lists.sym, [db])
        with pytest.raises(VerificationError, match=r"from e\d* to fresh\d* "):
            audit_transition(before, after, phase="broken-retarget")

    def test_turning_a_write_into_a_read_rejected(self):
        """The binding survives but no longer writes: the write is gone
        without its binding being removed, which the removal check misses."""
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, Const(1))))
        read = Stmt(write.sym, Expr("list_take", (lst.sym, Const(1))))
        before = program_of([lst, write], lst.sym, [db])
        after = program_of([lst, read], lst.sym, [db])
        with pytest.raises(VerificationError, match=r"from lst\d* to no target "):
            audit_transition(before, after, phase="broken-retarget")

    def test_retargeting_a_write_to_a_constant_rejected(self):
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, Const(1))))
        moved = Stmt(write.sym, Expr("list_append", (Const(None), Const(1))))
        before = program_of([lst, write], lst.sym, [db])
        after = program_of([lst, moved], lst.sym, [db])
        with pytest.raises(VerificationError, match=r"from lst\d* to None "):
            audit_transition(before, after, phase="broken-retarget")

    def test_folding_the_written_value_is_legal(self):
        """Only the target is pinned: a pass may rewrite what is written."""
        db = Sym("db")
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        value = Stmt(Sym("v", INT), Expr("add", (Const(1), Const(2))))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, value.sym)))
        folded = Stmt(write.sym, Expr("list_append", (lst.sym, Const(3))))
        before = program_of([lst, value, write], lst.sym, [db])
        after = program_of([lst, folded], lst.sym, [db])
        audit_transition(before, after, phase="dataflow-folding")

    def test_deleting_an_object_with_all_its_writes_is_legal(self):
        """Nothing read the list, so dropping it and its writes is
        unobservable — the escape-refined DCE does exactly this."""
        db = Sym("db")
        keep = Stmt(Sym("keep", INT), Expr("add", (Const(1), Const(2))))
        lst = Stmt(Sym("lst"), Expr("list_new", ()))
        write = Stmt(Sym("w"), Expr("list_append", (lst.sym, Const(1))))
        before = program_of([keep, lst, write], keep.sym, [db])
        after = program_of([keep], keep.sym, [db])
        audit_transition(before, after, phase="dce")
