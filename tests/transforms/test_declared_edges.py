"""The passes' ``enables`` declarations, held on programs TPC-H never builds.

The worklist of :func:`repro.stack.transformation.apply_fixpoint` re-runs a
pass only when a pass that declares it ``enables`` it changed the program, so
a declaration that misses an edge leaves a program one rewrite short.  The 22
queries exercise few of the edges (no sweep of DCE's gives anybody work
there), so these tests build the programs that do: each edge by hand,
compiled by the dblab-5 stack under ``verify=True`` (whose confirmation runs
every pass once more on the settled program), and a few hundred random
programs on which the worklist must settle exactly where the round-robin it
replaced did.
"""
import random

from repro.analysis import VerificationError, confirm_fixpoint
from repro.ir import Const, IRBuilder, make_program
from repro.ir.nodes import reset_symbol_counter
from repro.ir.traversal import count_ops
from repro.stack import SCALITE, CompilationContext
from repro.stack.configs import build_config
from repro.stack.transformation import apply_fixpoint, program_fingerprint
from repro.transforms.dce import DeadCodeElimination
from repro.transforms.folding import DataflowFolding

STACK = build_config("dblab-5").stack
STEPS = STACK.optimizations_for(SCALITE)
REC = {"fields": ("x",), "layout": "boxed"}


def round_robin(steps, program, context):
    """The driver before the worklist: whole rounds, until every step in a
    row has returned its input."""
    unchanged = 0
    while True:
        for step in steps:
            before, program = program, step.run(program, context)
            unchanged = unchanged + 1 if program is before else 0
            if unchanged == len(steps):
                return program


def verified(build):
    """``build()`` through the dblab-5 stack from ScaLite down, verified;
    returns the ScaLite fixpoint's phase and the final program."""
    reset_symbol_counter()
    result = STACK.compile(build(), SCALITE, verify=True)
    assert result.phases[0].name == "optimize[ScaLite]"
    return result.phases[0], result.program


def applied(phase):
    return phase.detail.split(": ")[1].split(", ")


class TestDeadCodeEliminationEdges:
    def test_taking_the_last_reader_of_a_branch_lets_folding_unwrap_it(self):
        """Folding keeps a decided ``None``-valued ``if_`` while something
        reads its binding; the reader here is dead."""
        def build():
            b = IRBuilder()
            branch = b.if_(True, lambda: None, lambda: None)
            b.emit("record_new", [branch], attrs=REC)
            return make_program(b.finish(b.emit("add", [1, 2])), [], "ScaLite")

        reset_symbol_counter()
        once = DeadCodeElimination(SCALITE)
        swept = once.run(build(), CompilationContext())
        assert count_ops(swept) == {"if_": 1, "add": 1}
        phase, program = verified(build)
        assert count_ops(program) == {}
        assert phase.requeued > 0 and "dataflow-folding[ScaLite]" in applied(phase)

    def test_a_dead_write_in_an_arm_gives_folding_no_work(self):
        """Under a condition the analysis decides but that is no literal (a
        field of a record built from ``False``), folding drops the arm not
        taken, its write to a list nobody reads and all, in its own run; so
        DCE's sweep of that write is no reason to run folding again."""
        def build():
            b = IRBuilder()
            seen = b.emit("list_new", [])
            flag = b.emit("record_get", [b.emit("record_new", [Const(False)], attrs=REC)],
                          attrs={"field": "x"})
            b.if_(flag, lambda: b.emit("list_append", [seen, 1]) and None,
                  lambda: b.emit("print_", [Const("kept")]) and None)
            return make_program(b.finish(Const(0)), [], "ScaLite")

        reset_symbol_counter()
        alone = DataflowFolding(SCALITE).run(build(), CompilationContext())
        assert "if_" not in count_ops(alone) and "list_append" not in count_ops(alone)
        assert DataflowFolding not in DeadCodeElimination(SCALITE).enables_after(build())
        phase, program = verified(build)
        assert count_ops(program) == {"print_": 1}

    def test_a_dead_write_strands_the_value_it_stored(self):
        """Liveness counts the append as a use of the record: one sweep takes
        the write-only list and its append, the next one the record."""
        def build():
            b = IRBuilder()
            rec = b.emit("record_new", [Const(1)], attrs=REC)
            lst = b.emit("list_new", [])
            b.emit("list_append", [lst, rec])
            return make_program(b.finish(b.emit("print_", [Const(0)])), [], "ScaLite")

        reset_symbol_counter()
        dce = DeadCodeElimination(SCALITE)
        once = dce.run(build(), CompilationContext())
        assert count_ops(once) == {"record_new": 1, "print_": 1}
        phase, program = verified(build)
        assert count_ops(program) == {"print_": 1}
        assert applied(phase) == ["dce[ScaLite]"] and phase.changed == 2

    def test_an_allocation_that_loses_its_last_reader_is_write_only(self):
        def build():
            b = IRBuilder()
            lst = b.emit("list_new", [])
            b.emit("list_append", [lst, 1])
            b.emit("record_new", [lst], attrs=REC)      # unused: the reader
            return make_program(b.finish(b.emit("print_", [Const(0)])), [], "ScaLite")

        phase, program = verified(build)
        assert count_ops(program) == {"print_": 1}
        assert phase.changed == 2

    def test_a_sweep_that_lowers_no_such_count_enables_nobody(self):
        b = IRBuilder()
        used = b.emit("add", [b.emit("print_", [Const(0)]), 2])
        b.emit("mul", [used, 10])            # unused pure
        program = make_program(b.finish(used), [], "ScaLite")
        dce = DeadCodeElimination(SCALITE)
        assert dce.run(program, CompilationContext()) is not program
        assert dce.enables_after(program) == ()


def random_program(seed):
    """A small ScaLite program: arithmetic, comparisons, (nested) records and
    their reads, lists and variables with writes, branches on constants and
    on computed conditions with ``None`` / scalar / record results, loops."""
    rng = random.Random(seed)
    b = IRBuilder()

    def block(depth, ints, recs, lists, bools):
        ints, recs, lists, bools = list(ints), list(recs), list(lists), list(bools)

        def an_int():
            if ints and rng.random() < .7:
                return rng.choice(ints)
            return Const(rng.randint(0, 9))

        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < .2:
                ints.append(b.emit(rng.choice(["add", "mul", "sub"]),
                                   [an_int(), an_int()]))
            elif kind < .3:
                bools.append(b.emit(rng.choice(["lt", "eq", "ge"]),
                                    [an_int(), an_int()]))
            elif kind < .42:
                recs.append(b.emit("record_new", [rng.choice([an_int()] + recs)],
                                   attrs=REC))
            elif kind < .54 and recs:
                ints.append(b.emit("record_get", [rng.choice(recs)],
                                   attrs={"field": "x"}))
            elif kind < .57:
                lists.append(b.emit("list_new", []))
            elif kind < .6:
                var = b.emit("var_new", [an_int()])
                if rng.random() < .7:
                    b.emit("var_write", [var, an_int()])
                if rng.random() < .6:
                    ints.append(b.emit("var_read", [var]))
            elif kind < .7 and lists:
                b.emit("list_append", [rng.choice(lists),
                                       rng.choice([an_int()] + recs)])
            elif kind < .85 and depth < 2:
                cond = rng.choice(bools + [Const(True), Const(False)])
                yields = rng.choice(["none", "int", "rec"])

                def arm():
                    inner = block(depth + 1, ints, recs, lists, bools)[0]
                    if yields == "int":
                        return rng.choice(inner) if inner else an_int()
                    if yields == "rec":
                        return b.emit("record_new", [an_int()], attrs=REC)
                    return None

                branch = b.if_(cond, arm, arm)
                if yields == "int":
                    ints.append(branch)
                elif yields == "rec":
                    recs.append(branch)
                elif rng.random() < .5:
                    recs.append(b.emit("record_new", [branch], attrs=REC))
            elif kind < .95 and depth < 2:
                bound = rng.choice([an_int(), Const(rng.randint(0, 4))])
                b.for_range(0, bound, lambda i: block(
                    depth + 1, ints + [i], recs, lists, bools))
            else:
                b.emit("print_", [an_int()])
        return ints, recs, lists, bools

    ints, _recs, lists, _bools = block(0, [], [], [], [])
    return make_program(b.finish(rng.choice(ints + lists + [Const(0)])), [], "ScaLite")


def settle(seed):
    """``(settled program, report, context)`` of the worklist on a seed."""
    reset_symbol_counter()
    context = CompilationContext()
    program, report = apply_fixpoint(STEPS, random_program(seed), context)
    return program, report, context


class TestRandomPrograms:
    SEEDS = range(600)

    def test_the_worklist_settles_where_the_round_robin_did(self):
        for seed in self.SEEDS:
            reset_symbol_counter()
            expected = round_robin(STEPS, random_program(seed), CompilationContext())
            program, report, context = settle(seed)
            assert program_fingerprint(program) == program_fingerprint(expected), seed
            confirm_fixpoint(STEPS, program, context, report)   # raises on a miss

    def test_the_programs_do_miss_an_edge_that_is_taken_away(self, monkeypatch):
        """What the test above is worth: with DCE claiming, as a plain
        ``enables = ()`` would, that its sweeps enable nobody, some of the
        same programs settle short and the confirmation says so."""
        monkeypatch.setattr(DeadCodeElimination, "enables_after",
                            lambda self, before: ())
        short = []
        for seed in self.SEEDS:
            program, report, context = settle(seed)
            try:
                confirm_fixpoint(STEPS, program, context, report)
            except VerificationError as error:
                assert error.check == "fixpoint"
                short.append(seed)
        assert len(short) >= 5
