"""Seeded dataflow miscompiles: the analysis cross-checks must reject them.

Companion to ``test_mutation_suite.py`` for the dataflow layer: each test
injects one deliberately-broken pass into a real dblab-5 compilation and
asserts the verifier rejects it with the *right* check name
(``parallel-safety`` / ``interval`` / ``nullability`` / ``dataflow``) and
the offending phase.  These are the seeded violations proving the
loop-dependence race detector and the interval/nullability audits detect
miscompiles rather than merely blessing healthy programs.
"""
import pytest

from repro.analysis import VerificationError
from repro.analysis.dataflow import classify_loops
from repro.analysis.dataflow.dependence import SAFETY_ATTR
from repro.analysis.dataflow.framework import use_def
from repro.analysis.dataflow.lattices import Nullability
from repro.analysis.dataflow.values import value_facts
from repro.codegen.compiler import QueryCompiler
from repro.ir import make_program
from repro.ir.nodes import Block, Const, Expr, Stmt, Sym
from repro.ir.traversal import iter_program_stmts
from repro.stack.configs import build_config
from repro.stack.language import language_by_name
from repro.stack.pipeline import DslStack
from repro.stack.transformation import FunctionOptimization

CONFIG = "dblab-5"
LEVEL = "ScaLite"


def _rebuild(program, body=None, hoisted=None):
    return make_program(body if body is not None else program.body,
                        program.params, program.language,
                        hoisted if hoisted is not None else program.hoisted)


def compile_mutated(catalog, mutation, name, query, **flag_overrides):
    config = build_config(CONFIG)
    config.flags = config.flags.copy_with(**flag_overrides)
    broken = FunctionOptimization(language_by_name(LEVEL), name, mutation)
    stack = DslStack(config.stack.name + "+mutation",
                     config.stack.languages, config.stack.lowerings,
                     list(config.stack.optimizations) + [broken])
    compiler = QueryCompiler(stack, config.flags, verify=True)
    compiler.compile(build_query_cached(query), catalog, query_name=query)


def build_query_cached(name):
    from repro.tpch.queries import build_query
    return build_query(name)


class TestDataflowMutations:
    def test_parallelizable_stamp_on_loop_carried_write_rejected(self, tpch_catalog):
        """A loop the dependence analysis proves sequential (order-dependent
        array_set into a shared slots array) stamped ``parallelizable``.
        Only the per-query build loop of a primary-key map in the body is
        sequential — Q16's filtered supplier and part scans, each writing one
        row position per key into its slots — and with the catalog access
        layer on there is no such loop (the slots are the catalog's own
        index), so this compiles the ``no_access`` mode."""

        def stamp(program, context):
            for verdict in classify_loops(program):
                if verdict.parallelizable:
                    continue
                for stmt, _ in iter_program_stmts(program):
                    if stmt.sym.id == verdict.sym_id:
                        stmt.expr.attrs[SAFETY_ATTR] = "parallelizable"
                        return _rebuild(program)
            return program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, stamp, "broken-annotator", "Q16",
                            catalog_access_layer=False)
        assert exc.value.check == "parallel-safety"
        assert exc.value.phase == f"broken-annotator[{LEVEL}]"
        assert "sequential" in str(exc.value)

    def test_interval_widening_rejected(self, tpch_catalog):
        """Folding variant that rewrites a constant operand so the binding's
        inferred interval grows — the transition audit forbids widening."""

        def widen(program, context):
            facts = value_facts(program, context.catalog)

            def rewrite(block):
                for i, stmt in enumerate(block.stmts):
                    expr = stmt.expr
                    if expr.op in ("add", "sub", "mul") and not expr.blocks \
                            and not facts.fact_of(stmt.sym.id).interval.is_top \
                            and any(isinstance(a, Const)
                                    and isinstance(a.value, (int, float))
                                    and not isinstance(a.value, bool)
                                    for a in expr.args):
                        args = tuple(
                            Const(10 ** 9) if isinstance(a, Const) else a
                            for a in expr.args)
                        stmts = list(block.stmts)
                        stmts[i] = Stmt(stmt.sym, Expr(
                            expr.op, args, dict(expr.attrs), (), expr.type))
                        return Block(stmts, block.result, block.params), True
                    for k, nested in enumerate(expr.blocks):
                        new_nested, done = rewrite(nested)
                        if done:
                            blocks = list(expr.blocks)
                            blocks[k] = new_nested
                            stmts = list(block.stmts)
                            stmts[i] = Stmt(stmt.sym, Expr(
                                expr.op, expr.args, dict(expr.attrs),
                                tuple(blocks), expr.type))
                            return Block(stmts, block.result,
                                         block.params), True
                return block, False

            body, done = rewrite(program.body)
            return _rebuild(program, body=body) if done else program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, widen, "broken-folding", "Q1")
        assert exc.value.check == "interval"
        assert exc.value.phase == f"broken-folding[{LEVEL}]"
        assert "widened" in str(exc.value)

    def test_nullability_stamp_rejected(self, tpch_catalog):
        """A binding the analysis cannot prove non-null stamped ``non_null``."""

        def stamp(program, context):
            facts = value_facts(program, context.catalog)
            for stmt, _ in iter_program_stmts(program):
                if stmt.expr.blocks:
                    continue
                fact = facts.fact_of(stmt.sym.id)
                if fact.nullability is not Nullability.NON_NULL:
                    stmt.expr.attrs["non_null"] = True
                    return _rebuild(program)
            return program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, stamp, "broken-nullability", "Q1")
        assert exc.value.check == "nullability"
        assert exc.value.phase == f"broken-nullability[{LEVEL}]"

    def test_sequential_to_parallel_flip_rejected(self, tpch_catalog):
        """Retargeting a loop-carried write to a fresh loop-local array flips
        the classification to parallelizable without removing anything — the
        loop no longer builds the shared structure it was meant to build."""

        def flip(program, context):
            sequential = {
                v.sym_id for v in classify_loops(program)
                if not v.parallelizable and "order-dependent" in v.reason}

            def rewrite(block, inside_target):
                for i, stmt in enumerate(block.stmts):
                    expr = stmt.expr
                    if inside_target and expr.op == "array_set":
                        target = expr.args[0]
                        if isinstance(target, Sym):
                            local = Sym("mutlocal")
                            alloc = Stmt(local, Expr("array_new",
                                                     (Const(1),), {}, (), None))
                            retargeted = Stmt(stmt.sym, Expr(
                                expr.op, (local,) + tuple(expr.args[1:]),
                                dict(expr.attrs), (), expr.type))
                            stmts = list(block.stmts)
                            stmts[i:i + 1] = [alloc, retargeted]
                            return Block(stmts, block.result,
                                         block.params), True
                    for k, nested in enumerate(expr.blocks):
                        new_nested, done = rewrite(
                            nested, inside_target or stmt.sym.id in sequential)
                        if done:
                            blocks = list(expr.blocks)
                            blocks[k] = new_nested
                            stmts = list(block.stmts)
                            stmts[i] = Stmt(stmt.sym, Expr(
                                expr.op, expr.args, dict(expr.attrs),
                                tuple(blocks), expr.type))
                            return Block(stmts, block.result,
                                         block.params), True
                return block, False

            body, done = rewrite(program.body, False)
            if done:
                return _rebuild(program, body=body)
            hoisted, done = rewrite(program.hoisted, False)
            return _rebuild(program, hoisted=hoisted) if done else program

        with pytest.raises(VerificationError) as exc:
            # the sequential loop is a per-query primary-key build in the
            # body, which only the no_access mode emits (see the stamp test
            # above)
            compile_mutated(tpch_catalog, flip, "broken-retarget", "Q16",
                            catalog_access_layer=False)
        assert exc.value.check == "parallel-safety"
        assert exc.value.phase == f"broken-retarget[{LEVEL}]"
        assert "flipped" in str(exc.value)

    def test_narrow_range_stamp_rejected(self, tpch_catalog):
        """A range stamp the interval analysis does not contain."""
        from repro.analysis.dataflow.lattices import Interval

        def stamp(program, context):
            facts = value_facts(program, context.catalog)
            claimed = Interval(0, 0)
            for stmt, _ in iter_program_stmts(program):
                if stmt.expr.blocks:
                    continue
                if not facts.fact_of(stmt.sym.id).interval.leq(claimed):
                    stmt.expr.attrs["range"] = (0, 0)
                    return _rebuild(program)
            return program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, stamp, "broken-range", "Q1")
        assert exc.value.check == "interval"
        assert exc.value.phase == f"broken-range[{LEVEL}]"
        assert "does not contain" in str(exc.value)

    def test_unjustified_branch_unwrap_rejected(self, tpch_catalog):
        """Splicing an if_ arm into the parent without recording the
        justification the audit re-verifies."""

        def unwrap(program, context):
            uses = use_def(program).uses

            def rewrite(block):
                for i, stmt in enumerate(block.stmts):
                    expr = stmt.expr
                    if expr.op == "if_" and len(expr.blocks) == 2 \
                            and expr.blocks[0].stmts \
                            and not expr.blocks[1].stmts \
                            and uses.get(stmt.sym.id, 0) == 0:
                        stmts = list(block.stmts[:i]) \
                            + list(expr.blocks[0].stmts) \
                            + list(block.stmts[i + 1:])
                        return Block(stmts, block.result, block.params), True
                    for k, nested in enumerate(expr.blocks):
                        new_nested, done = rewrite(nested)
                        if done:
                            blocks = list(expr.blocks)
                            blocks[k] = new_nested
                            stmts = list(block.stmts)
                            stmts[i] = Stmt(stmt.sym, Expr(
                                expr.op, expr.args, dict(expr.attrs),
                                tuple(blocks), expr.type))
                            return Block(stmts, block.result,
                                         block.params), True
                return block, False

            body, done = rewrite(program.body)
            return _rebuild(program, body=body) if done else program

        with pytest.raises(VerificationError) as exc:
            # Q6 (not Q1): Q1's only if_ is legitimately folded away by the
            # dataflow-folding pass before the mutation can target it.
            compile_mutated(tpch_catalog, unwrap, "broken-unwrap", "Q6")
        assert exc.value.check == "dataflow"
        assert exc.value.phase == f"broken-unwrap[{LEVEL}]"
        assert "justification" in str(exc.value)

    def test_partition_probe_offset_off_by_one_rejected(self, tpch_catalog):
        """The probe of a catalog-resident partition indexes ``key - key_lo``;
        a variant that subtracts one more shifts every probe to its
        neighbour's bucket (and ``-1`` wraps to the last one).  The shifted
        index interval no longer fits the one the unmutated program had."""

        def shift(program, context):
            defs = use_def(program).defs
            probe_indices = {
                stmt.expr.args[1].id for stmt, _ in iter_program_stmts(program)
                if stmt.expr.op == "array_get"
                and isinstance(stmt.expr.args[0], Sym)
                and isinstance(stmt.expr.args[1], Sym)
                and defs[stmt.expr.args[0].id].expr.op == "access_partition"}

            def rewrite(block):
                stmts = []
                for stmt in block.stmts:
                    expr = stmt.expr
                    args = expr.args
                    if stmt.sym.id in probe_indices and expr.op == "sub":
                        args = (args[0], Const(args[1].value + 1))
                    stmts.append(Stmt(stmt.sym, Expr(
                        expr.op, args, dict(expr.attrs),
                        tuple(rewrite(nested) for nested in expr.blocks),
                        expr.type)))
                return Block(stmts, block.result, block.params)

            assert probe_indices, "Q4 no longer probes a resident partition"
            return _rebuild(program, body=rewrite(program.body))

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, shift, "broken-probe-offset", "Q4")
        assert exc.value.check == "interval"
        assert exc.value.phase == f"broken-probe-offset[{LEVEL}]"
        assert "widened" in str(exc.value)
