"""Unit tests for the DSL stack pipeline and its principle checks."""
import pytest

from repro.analysis import VerificationError
from repro.ir import IRBuilder, make_program
from repro.ir.nodes import Const, Program
from repro.ir.traversal import count_ops, rewrite_program
from repro.stack import (C_PY, CompilationContext, DslStack, FunctionOptimization,
                         Language, Lowering, Optimization, OptimizationFlags, QPLAN, SCALITE,
                         SCALITE_LIST, SCALITE_MAP_LIST, StackValidationError,
                         TransformationError, apply_fixpoint)
from repro.stack.transformation import MAX_ITERATIONS


def simple_program(language="ScaLite"):
    builder = IRBuilder()
    x = builder.emit("add", [1, 2])
    y = builder.emit("mul", [x, 3])
    return make_program(builder.finish(y), [], language)


class RenamingLowering(Lowering):
    """A trivial lowering used by the tests: relabels the program's language."""

    def __init__(self, source, target, name=None):
        self.name = name or f"lower-{source.name}-to-{target.name}"
        super().__init__(source, target)

    def run(self, program, context):
        return Program(body=program.body, params=program.params,
                       language=self.target.name, hoisted=program.hoisted)


class ConstantFolding(Optimization):
    name = "constant-folding"

    def run(self, program, context):
        def fold(stmt, rw):
            if stmt.expr.op in ("add", "mul") and all(isinstance(a, Const) for a in stmt.expr.args):
                left, right = (a.value for a in stmt.expr.args)
                value = left + right if stmt.expr.op == "add" else left * right
                return Const(value)
            return None
        return rewrite_program(program, fold, language=program.language)


class TestTransformationDeclarations:
    def test_lowering_must_decrease_level(self):
        with pytest.raises(TransformationError):
            RenamingLowering(SCALITE, SCALITE_MAP_LIST)

    def test_lowering_same_level_rejected(self):
        with pytest.raises(TransformationError):
            RenamingLowering(SCALITE, SCALITE)

    def test_a_listed_optimization_runs_whatever_the_flags(self):
        """The pass list is the only statement of what runs: no flag gates a
        listed optimization."""
        stack = DslStack("two", [SCALITE, C_PY], [RenamingLowering(SCALITE, C_PY)],
                         [ConstantFolding(SCALITE)])
        all_off = CompilationContext(flags=OptimizationFlags(
            logical_plan_optimizer=False, catalog_access_layer=False,
            subplan_sharing=False))
        counts = count_ops(stack.compile(simple_program(), SCALITE, all_off).program)
        assert "add" not in counts and "mul" not in counts


class TestFixpoint:
    def test_constant_folding_reaches_fixpoint(self):
        program = simple_program()
        opt = ConstantFolding(SCALITE)
        folded, report = apply_fixpoint([opt], program, CompilationContext())
        assert report.reached_fixpoint
        # add(1,2) -> 3 then mul(3,3) -> 9: no arithmetic remains
        counts = count_ops(folded)
        assert "add" not in counts and "mul" not in counts

    def test_fixpoint_terminates_on_oscillation(self):
        """An optimization that always produces new structure stops after
        ``MAX_ITERATIONS`` passes, reported rather than raised."""
        flip = {"n": 0}

        def oscillate(program, context):
            flip["n"] += 1
            builder = IRBuilder()
            builder.emit("add", [flip["n"], 1])
            return make_program(builder.finish(), [], program.language)

        opt = FunctionOptimization(SCALITE, "oscillate", oscillate)
        _, report = apply_fixpoint([opt], simple_program(), CompilationContext())
        assert MAX_ITERATIONS == 8
        assert report.iterations == report.runs == flip["n"] == MAX_ITERATIONS
        assert not report.reached_fixpoint

    def test_the_bound_caps_runs_at_max_iterations_times_the_steps(self):
        """Two steps that always change the program: every pass runs both,
        so the bound is ``MAX_ITERATIONS * len(steps)`` runs."""
        def grow(program, context):
            return program + ("x",)

        steps = [FunctionOptimization(SCALITE, name, grow) for name in "ab"]
        result, report = apply_fixpoint(steps, (), CompilationContext())
        assert report.runs == len(result) == MAX_ITERATIONS * len(steps)
        assert report.iterations == MAX_ITERATIONS
        assert not report.reached_fixpoint

    def test_empty_optimization_list_is_trivial_fixpoint(self):
        program = simple_program()
        result, report = apply_fixpoint([], program, CompilationContext())
        assert result is program
        assert report.reached_fixpoint


def round_robin(steps, program, context):
    """The driver as it was before the worklist: whole rounds, until every
    step in a row has returned its input.  Returns ``(program, runs)``."""
    unchanged, runs = 0, 0
    while True:
        for step in steps:
            before, program = program, step.run(program, context)
            runs += 1
            unchanged = unchanged + 1 if program is before else 0
            if unchanged == len(steps):
                return program, runs


class _Grow(Optimization):
    """Appends ``mark`` to a tuple program while its length has ``parity``
    and is below 5 — so two of them hand each other work, ping-pong."""

    def __init__(self, mark, parity, calls):
        super().__init__(SCALITE)
        self.name = self.mark = mark
        self.parity, self.calls = parity, calls

    def run(self, program, context):
        self.calls.append(self.mark)
        if len(program) < 5 and len(program) % 2 == self.parity:
            return program + (self.mark,)
        return program


class TestWorklist:
    def test_undeclared_steps_reproduce_the_round_robin(self):
        """A enables B enables A, nothing declared: the conservative default
        re-queues everyone, which is the old driver run for run."""
        old_calls, new_calls = [], []
        expected, old_runs = round_robin(
            [_Grow("a", 1, old_calls), _Grow("b", 0, old_calls)], ("x",), None)
        steps = [_Grow("a", 1, new_calls), _Grow("b", 0, new_calls)]
        assert all(step.enables is None for step in steps)
        result, report = apply_fixpoint(steps, ("x",), CompilationContext())
        assert result == expected == ("x", "a", "b", "a", "b")
        assert new_calls == old_calls == ["a", "b"] * 3
        assert report.runs == old_runs == 6 and report.iterations == 3
        assert report.applied == ["a", "b", "a", "b"]
        assert report.reached_fixpoint

    def test_a_declared_ping_pong_skips_the_runs_nobody_asked_for(self):
        class Ping(_Grow):
            pass

        class Pong(_Grow):
            enables = (Ping,)

        Ping.enables = (Pong,)
        calls = []
        result, report = apply_fixpoint(
            [Ping("a", 1, calls), Pong("b", 0, calls)], ("x",),
            CompilationContext())
        assert result == ("x", "a", "b", "a", "b")
        # the last change was b's: it owes a run to a, and to nobody else
        assert calls == ["a", "b", "a", "b", "a"]
        assert report.runs == 5 and report.requeued == 3

    def test_a_step_may_name_fewer_classes_for_one_change(self):
        """``enables_after(before)`` is asked instead of ``enables`` when the
        step changed ``before``; the default answers ``enables``."""
        class Ping(_Grow):
            pass

        class Pong(_Grow):
            enables = (Ping,)

            def enables_after(self, before):
                return () if len(before) == 4 else self.enables

        Ping.enables = (Pong,)
        assert Ping("a", 1, []).enables_after(("x",)) == (Pong,)
        calls = []
        result, report = apply_fixpoint(
            [Ping("a", 1, calls), Pong("b", 0, calls)], ("x",),
            CompilationContext())
        assert result == ("x", "a", "b", "a", "b")
        # b's last change (of a 4-tuple) owed nobody a run
        assert calls == ["a", "b", "a", "b"]
        assert report.runs == 4 and report.requeued == 2

    def test_a_step_that_enables_nothing_is_followed_by_no_rerun(self):
        class Settles(_Grow):
            enables = ()

        calls = []
        result, report = apply_fixpoint(
            [_Grow("never", 0, calls), Settles("once", 1, calls)], ("x",),
            CompilationContext())
        assert result == ("x", "once")
        assert calls == ["never", "once"]
        assert (report.runs, report.iterations, report.requeued) == (2, 1, 0)
        assert report.applied == ["once"] and report.reached_fixpoint


class SubToAdd(Optimization):
    """``sub(a, b)`` over constants becomes ``add(a, -b)``: work for
    :class:`ConstantFolding`, whatever this pass declares."""

    name = "sub-to-add"

    def run(self, program, context):
        def rewrite(stmt, rw):
            args = stmt.expr.args
            if stmt.expr.op == "sub" and all(isinstance(a, Const) for a in args):
                return rw.emit("add", [args[0], Const(-args[1].value)])
            return None
        return rewrite_program(program, rewrite, language=program.language)


class SilentSubToAdd(SubToAdd):
    #: deliberately wrong: it creates a foldable ``add``
    enables = ()


def sub_program():
    builder = IRBuilder()
    x = builder.emit("sub", [5, 2])
    return make_program(builder.finish(builder.emit("mul", [x, 3])), [], "ScaLite")


class TestFixpointConfirmation:
    def _stack(self, *optimizations):
        return DslStack("two", [SCALITE, C_PY], [RenamingLowering(SCALITE, C_PY)],
                        list(optimizations))

    def test_an_honest_declaration_verifies(self):
        class HonestSubToAdd(SubToAdd):
            enables = (ConstantFolding,)

        for rewrite in (SubToAdd(SCALITE), HonestSubToAdd(SCALITE)):
            stack = self._stack(ConstantFolding(SCALITE), rewrite)
            result = stack.compile(sub_program(), SCALITE, verify=True)
            assert count_ops(result.program) == {}
            phase = result.phases[0]
            assert phase.detail.endswith(": constant-folding, sub-to-add")
            # folding declares nothing, so it re-queued the rewrite (and itself)
            assert (phase.runs, phase.changed, phase.requeued) == (5, 2, 3)

    def test_a_wrong_declaration_passes_unverified_and_fails_verified(self):
        stack = self._stack(ConstantFolding(SCALITE), SilentSubToAdd(SCALITE))
        weaker = stack.compile(sub_program(), SCALITE)
        assert weaker.phases[0].detail == "2 run(s) in 1 iteration(s): sub-to-add"
        assert (weaker.phases[0].runs, weaker.phases[0].requeued) == (2, 0)
        assert count_ops(weaker.program) == {"add": 1, "mul": 1}   # unfolded
        with pytest.raises(VerificationError) as err:
            stack.compile(sub_program(), SCALITE, verify=True)
        assert err.value.check == "fixpoint"
        assert err.value.phase == "constant-folding"        # who was owed a run
        assert "sub-to-add" in err.value.detail             # by whom
        assert "ConstantFolding" in err.value.detail

    def test_hitting_the_bound_is_reported_and_fails_verified(self):
        """``DslStack.compile`` used to drop ``reached_fixpoint``."""
        class Flip(Optimization):
            name = "flip"

            def run(self, program, context):
                def swap(stmt, rw):
                    if stmt.expr.op == "mul" and len(stmt.expr.args) == 2:
                        return rw.emit("mul", reversed(stmt.expr.args))
                    return None
                return rewrite_program(program, swap, language=program.language)

        stack = self._stack(Flip(SCALITE))
        phase = stack.compile(simple_program(), SCALITE).phases[0]
        assert phase.detail == ("8 run(s) in 8 iteration(s), stopped at the "
                                "bound with steps still queued: flip")
        with pytest.raises(VerificationError) as err:
            stack.compile(simple_program(), SCALITE, verify=True)
        assert err.value.check == "fixpoint" and "no fixed point" in err.value.detail
        settled = self._stack(ConstantFolding(SCALITE)).compile(
            simple_program(), SCALITE)
        assert "bound" not in settled.phases[0].detail


class TestStackValidation:
    def test_unique_sink_required(self):
        with pytest.raises(StackValidationError):
            DslStack("broken", [SCALITE_MAP_LIST, SCALITE, C_PY],
                     [RenamingLowering(SCALITE_MAP_LIST, SCALITE)])

    def test_cohesion_violated_by_two_lowerings_from_same_language(self):
        with pytest.raises(StackValidationError) as err:
            DslStack("broken", [SCALITE_MAP_LIST, SCALITE, C_PY],
                     [RenamingLowering(SCALITE_MAP_LIST, SCALITE),
                      RenamingLowering(SCALITE_MAP_LIST, C_PY),
                      RenamingLowering(SCALITE, C_PY)])
        assert "cohesion" in str(err.value)

    def test_transform_with_foreign_language_rejected(self):
        with pytest.raises(StackValidationError):
            DslStack("broken", [SCALITE, C_PY], [RenamingLowering(SCALITE_LIST, SCALITE)])

    def test_valid_chain_accepted(self):
        stack = DslStack("ok", [SCALITE_MAP_LIST, SCALITE_LIST, SCALITE, C_PY],
                         [RenamingLowering(SCALITE_MAP_LIST, SCALITE_LIST),
                          RenamingLowering(SCALITE_LIST, SCALITE),
                          RenamingLowering(SCALITE, C_PY)])
        assert stack.target_language is C_PY
        assert stack.level_count(SCALITE_MAP_LIST) == 4

    def test_lowering_path_is_the_unique_chain(self):
        stack = DslStack("ok", [SCALITE_LIST, SCALITE, C_PY],
                         [RenamingLowering(SCALITE_LIST, SCALITE),
                          RenamingLowering(SCALITE, C_PY)])
        path = stack.lowering_path(SCALITE_LIST)
        assert [low.target.name for low in path] == ["ScaLite", "C.Py"]

    def test_describe_mentions_every_level(self):
        stack = DslStack("ok", [SCALITE, C_PY], [RenamingLowering(SCALITE, C_PY)])
        text = stack.describe()
        assert "ScaLite" in text and "C.Py" in text


class TestStackCompilation:
    def _two_level_stack(self):
        return DslStack("two", [SCALITE, C_PY],
                        [RenamingLowering(SCALITE, C_PY)],
                        [ConstantFolding(SCALITE)])

    def test_compile_runs_optimizations_then_lowering(self):
        stack = self._two_level_stack()
        result = stack.compile(simple_program(), SCALITE)
        assert result.language is C_PY
        kinds = [p.kind for p in result.phases]
        assert kinds == ["optimization-fixpoint", "lowering"]
        assert "add" not in count_ops(result.program)

    def test_compile_rejects_language_outside_stack(self):
        stack = self._two_level_stack()
        with pytest.raises(StackValidationError):
            stack.compile(simple_program(), QPLAN)

    def test_phase_timings_are_recorded(self):
        stack = self._two_level_stack()
        result = stack.compile(simple_program(), SCALITE)
        assert all(p.seconds >= 0 for p in result.phases)

    def test_level_validation_catches_bad_lowering_output(self):
        class BadLowering(Lowering):
            name = "bad"

            def run(self, program, context):
                builder = IRBuilder()
                builder.emit("list_new", [])   # not in the target's vocabulary
                return make_program(builder.finish(), [], self.target.name)

        scalars_only = Language("Scalars", level=15, ops=frozenset({"add", "mul"}))
        stack = DslStack("bad-stack", [SCALITE, scalars_only],
                         [BadLowering(SCALITE, scalars_only)])
        with pytest.raises(StackValidationError):
            stack.compile(simple_program(), SCALITE)
