"""Unit tests for the loop-dependence race detector and its annotator."""
import pytest

from repro.analysis import VerificationError
from repro.analysis.dataflow import (annotate_parallel_safety,
                                     classification_map, classify_loops,
                                     top_level_loops)
from repro.analysis.dataflow.checks import check_stamps
from repro.analysis.dataflow.dependence import SAFETY_ATTR
from repro.ir import IRBuilder, make_program


def _only(classifications):
    assert len(classifications) == 1
    return classifications[0]


class TestClassifyLoops:
    def test_merge_backed_append_is_parallelizable(self):
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")
        b.for_range(0, 100, lambda i: b.emit("list_append", [out, i]))
        program = make_program(b.finish(out), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert verdict.parallelizable
        assert verdict.merges == (("out", "concat"),)
        assert "merges" in verdict.reason

    def test_iteration_local_effects_are_parallelizable(self):
        b = IRBuilder()

        def body(i):
            local = b.emit("list_new", [], hint="local")
            b.emit("list_append", [local, i])

        b.for_range(0, 100, body)
        program = make_program(b.finish(None), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert verdict.parallelizable
        assert verdict.reason == "iteration-local effects only"

    def test_order_dependent_write_is_sequential(self):
        b = IRBuilder()
        slot = b.emit("var_new", [0], hint="slot")
        b.for_range(0, 100, lambda i: b.emit("var_write", [slot, i]))
        program = make_program(b.finish(None), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert not verdict.parallelizable
        assert "order-dependent write to slot" in verdict.reason

    def test_while_loop_is_sequential(self):
        b = IRBuilder()
        flag = b.emit("var_new", [True], hint="flag")
        b.while_(lambda: b.emit("var_read", [flag]),
                 lambda: b.emit("var_write", [flag, False]))
        program = make_program(b.finish(None), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert not verdict.parallelizable
        assert verdict.reason == "loop-carried control dependence"

    def test_io_pins_loop_sequential(self):
        b = IRBuilder()
        b.for_range(0, 10, lambda i: b.emit("print_", [i]))
        program = make_program(b.finish(None), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert not verdict.parallelizable
        assert "performs I/O" in verdict.reason

    def test_observing_partial_output_is_sequential(self):
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")

        def body(i):
            b.emit("list_append", [out, i])
            b.emit("list_take", [out, 1])

        b.for_range(0, 10, body)
        program = make_program(b.finish(out), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert not verdict.parallelizable
        assert "partial output" in verdict.reason

    def test_reading_outer_state_stays_parallelizable(self):
        """Reads of outer objects (including via control-op arguments) are
        safe — only unmerged writes pin a loop."""
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")
        threshold = b.emit("add", [10, 20])

        def body(i):
            cond = b.emit("lt", [i, threshold])
            b.if_(cond, lambda: b.emit("list_append", [out, i]))

        b.for_range(0, 100, body)
        program = make_program(b.finish(out), [], "ScaLite")
        verdict = _only(classify_loops(program))
        assert verdict.parallelizable

    def test_top_level_loops_descend_if_arms_only(self):
        b = IRBuilder()
        cond = b.emit("lt", [1, 2])

        def then_arm():
            b.for_range(0, 10, lambda i:
                        b.for_range(0, 10, lambda j: b.emit("add", [i, j]),
                                    hint="inner"),
                        hint="outer")

        b.if_(cond, then_arm)
        program = make_program(b.finish(None), [], "ScaLite")
        loops = list(top_level_loops(program))
        # only the outer loop (inside the if_ arm) is depth-0; the nested
        # loop lives in its body and is not yielded
        assert len(loops) == 1
        outer = loops[0]
        assert outer.expr.op == "for_range"
        assert any(s.expr.op == "for_range"
                   for s in outer.expr.blocks[0].stmts)
        assert len(classify_loops(program)) == 1

    def test_classification_is_memoized(self):
        b = IRBuilder()
        b.for_range(0, 10, lambda i: b.emit("add", [i, 1]))
        program = make_program(b.finish(None), [], "ScaLite")
        assert classify_loops(program) is classify_loops(program)


class TestAnnotatorAndStampChecks:
    def _program(self):
        b = IRBuilder()
        out = b.emit("list_new", [], hint="out")
        b.for_range(0, 100, lambda i: b.emit("list_append", [out, i]))
        slot = b.emit("var_new", [0], hint="slot")
        b.for_range(0, 100, lambda i: b.emit("var_write", [slot, i]))
        return make_program(b.finish(out), [], "ScaLite")

    def test_annotator_stamps_match_verdicts(self):
        program = self._program()
        verdicts = annotate_parallel_safety(program)
        assert len(verdicts) == 2
        by_id = classification_map(program)
        for stmt in top_level_loops(program):
            assert stmt.expr.attrs[SAFETY_ATTR] == by_id[stmt.sym.id].stamp
        check_stamps(program)  # the annotator's own stamps always verify

    def test_tampered_stamp_is_rejected(self):
        program = self._program()
        annotate_parallel_safety(program)
        for stmt in top_level_loops(program):
            if stmt.expr.attrs[SAFETY_ATTR].startswith("sequential"):
                stmt.expr.attrs[SAFETY_ATTR] = "parallelizable"
        with pytest.raises(VerificationError) as exc:
            check_stamps(program, phase="tamper-test")
        assert exc.value.check == "parallel-safety"
        assert exc.value.phase == "tamper-test"


class TestReport:
    def test_report_classifies_every_loop(self):
        from repro.analysis.dataflow.report import build_report
        report = build_report(scale_factor=0.001, seed=20160626,
                              config_names=["dblab-5"], query_names=["Q6"])
        summary = report["summary"]
        assert summary["failures"] == 0
        assert summary["total_loops"] >= 1
        assert summary["parallelizable"] >= 1
        loops = report["configs"]["dblab-5"]["Q6"]["loops"]
        assert all(loop["verdict"] in ("parallelizable", "sequential")
                   for loop in loops)
