"""Seeded dataflow miscompiles: the analysis cross-checks must reject them.

Companion to ``test_mutation_suite.py`` for the dataflow layer: each test
injects one deliberately-broken pass into a real dblab-5 compilation and
asserts the verifier rejects it with the *right* check name
(``effects`` / ``interval`` / ``dataflow``) and the offending phase.  These
are the seeded violations proving the transition audits detect miscompiles
rather than merely blessing healthy programs.
"""
import pytest

from repro.analysis import VerificationError
from repro.analysis.dataflow.framework import LOOP_OPS, use_def
from repro.analysis.dataflow.values import value_facts
from repro.codegen.compiler import QueryCompiler
from repro.ir import make_program
from repro.ir.nodes import Block, Const, Expr, Stmt, Sym
from repro.ir.traversal import iter_program_stmts
from repro.stack.configs import build_config
from repro.stack.language import ALL_LANGUAGES
from repro.stack.pipeline import DslStack
from repro.stack.transformation import FunctionOptimization

CONFIG = "dblab-5"
LEVEL = "ScaLite"


def _language(name):
    return next(lang for lang in ALL_LANGUAGES if lang.name == name)


def _rebuild(program, body=None, hoisted=None):
    return make_program(body if body is not None else program.body,
                        program.params, program.language,
                        hoisted if hoisted is not None else program.hoisted)


def compile_mutated(catalog, mutation, name, query, **flag_overrides):
    config = build_config(CONFIG)
    config.flags = config.flags.copy_with(**flag_overrides)
    broken = FunctionOptimization(_language(LEVEL), name, mutation)
    stack = DslStack(config.stack.name + "+mutation",
                     config.stack.languages, config.stack.lowerings,
                     list(config.stack.optimizations) + [broken])
    compiler = QueryCompiler(stack, config.flags, verify=True)
    compiler.compile(build_query_cached(query), catalog, query_name=query)


def build_query_cached(name):
    from repro.tpch.queries import build_query
    return build_query(name)


class TestDataflowMutations:
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

    def test_sequential_to_parallel_flip_rejected(self, tpch_catalog):
        """Retargeting a loop's write from the shared slots array to a fresh
        loop-local array removes nothing and reorders nothing — but the loop
        no longer builds the structure it was meant to build.  Q16's
        filtered supplier and part scans each write one row position per
        key into the slots of a primary-key map; with the catalog access
        layer on the slots are the catalog's own index and no such loop is
        built, so this compiles the ``no_access`` mode."""

        def flip(program, context):
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
                            nested, inside_target or expr.op in LOOP_OPS)
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
            compile_mutated(tpch_catalog, flip, "broken-retarget", "Q16",
                            catalog_access_layer=False)
        assert exc.value.check == "effects"
        assert exc.value.phase == f"broken-retarget[{LEVEL}]"
        assert "retargeted" in str(exc.value)

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
