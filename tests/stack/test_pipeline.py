"""Unit tests for the DSL stack pipeline and its principle checks."""
import pytest

from repro.ir import IRBuilder, make_program
from repro.ir.nodes import Const, Program
from repro.ir.traversal import count_ops, rewrite_program
from repro.stack import (C_PY, CompilationContext, DslStack, FunctionOptimization,
                         Language, Lowering, Optimization, OptimizationFlags, QPLAN, SCALITE,
                         SCALITE_LIST, SCALITE_MAP_LIST, StackValidationError,
                         TransformationError, apply_fixpoint)


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
        """An optimization that always produces new structure hits the bound."""
        flip = {"n": 0}

        def oscillate(program, context):
            flip["n"] += 1
            builder = IRBuilder()
            builder.emit("add", [flip["n"], 1])
            return make_program(builder.finish(), [], program.language)

        opt = FunctionOptimization(SCALITE, "oscillate", oscillate)
        _, report = apply_fixpoint([opt], simple_program(), CompilationContext(),
                                   max_iterations=4)
        assert report.iterations == 4
        assert not report.reached_fixpoint

    def test_empty_optimization_list_is_trivial_fixpoint(self):
        program = simple_program()
        result, report = apply_fixpoint([], program, CompilationContext())
        assert result is program
        assert report.reached_fixpoint


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
        assert result.total_seconds >= 0
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
