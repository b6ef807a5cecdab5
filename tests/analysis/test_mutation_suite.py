"""Mutation suite: deliberately broken transformations must be rejected.

Each test injects one seeded miscompile into a real compilation pipeline —
a broken optimization variant into the dblab-5 stack, a broken rewrite rule
into the planner, a tampering unparser — and asserts the verifier rejects it
with a :class:`VerificationError` attributed to the offending phase.  This
is the evidence that the static-analysis layer detects miscompiles instead
of merely blessing healthy programs.
"""
import pytest

from repro.analysis import VerificationError
from repro.analysis.effects_audit import effective_effect
from repro.codegen.compiler import QueryCompiler
from repro.codegen.unparser import PythonUnparser
from repro.ir import make_program
from repro.ir.nodes import Block, Const, Expr, Stmt, Sym
from repro.ir.traversal import used_syms
from repro.stack.configs import build_config
from repro.stack.language import ALL_LANGUAGES
from repro.stack.pipeline import DslStack
from repro.stack.transformation import FunctionOptimization
from repro.tpch.queries import build_query

QUERY = "Q1"
CONFIG = "dblab-5"
LEVEL = "ScaLite"


def _language(name):
    return next(lang for lang in ALL_LANGUAGES if lang.name == name)


def _rebuild(program, body):
    return make_program(body, program.params, program.language,
                        program.hoisted)


def compile_mutated(catalog, mutation, name, level=LEVEL, query=QUERY):
    """Compile ``query`` with ``mutation`` injected as an optimization."""
    config = build_config(CONFIG)
    broken = FunctionOptimization(_language(level), name, mutation)
    stack = DslStack(config.stack.name + "+mutation",
                     config.stack.languages, config.stack.lowerings,
                     list(config.stack.optimizations) + [broken])
    compiler = QueryCompiler(stack, config.flags, verify=True)
    compiler.compile(build_query(query), catalog, query_name=query)


class TestMutationSuite:
    def test_dropped_live_binding_rejected(self, tpch_catalog):
        """DCE variant that drops a binding whose symbol is still used."""

        def drop_live(program, context):
            body = program.body
            used = {s.id for s in used_syms(body)}
            for i, stmt in enumerate(body.stmts):
                if stmt.sym.id in used and not stmt.expr.blocks:
                    stmts = list(body.stmts[:i]) + list(body.stmts[i + 1:])
                    return _rebuild(program, Block(stmts, body.result,
                                                   body.params))
            return program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, drop_live, "broken-dce")
        assert exc.value.check == "scope"
        assert exc.value.phase == f"broken-dce[{LEVEL}]"

    @pytest.mark.parametrize("query, op, check", [
        # the lookup of the record the folds write: a write, and used
        ("Q1", "hashmap_agg_group", "effects"),
        ("Q17", "dense_agg_group", "effects"),
        # the lookup of a value its table slot holds: a write too
        ("Q6", "hashmap_agg_group", "effects"),
        ("Q18", "dense_agg_group", "effects"),
        # a count_distinct's finalised value: a removable read, but used
        ("Q16", "set_size", "scope"),
    ])
    def test_dropped_aggregate_binding_rejected(self, tpch_catalog, query, op, check):
        """DCE variant that drops the first ``op`` binding, wherever it is
        nested: the effect audit refuses a dropped write, the scope check
        the dangling uses of a dropped read."""

        def drop(block):
            for i, stmt in enumerate(block.stmts):
                if stmt.expr.op == op:
                    return Block(block.stmts[:i] + block.stmts[i + 1:],
                                 block.result, block.params), True
                for k, nested in enumerate(stmt.expr.blocks):
                    new_nested, done = drop(nested)
                    if done:
                        blocks = list(stmt.expr.blocks)
                        blocks[k] = new_nested
                        stmts = list(block.stmts)
                        stmts[i] = Stmt(stmt.sym, Expr(
                            stmt.expr.op, stmt.expr.args, dict(stmt.expr.attrs),
                            tuple(blocks), stmt.expr.type))
                        return Block(stmts, block.result, block.params), True
            return block, False

        def mutate(program, context):
            body, done = drop(program.body)
            assert done, f"{query} no longer emits {op}"
            return _rebuild(program, body)

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, mutate, "broken-dce", query=query)
        assert exc.value.check == check
        assert exc.value.phase == f"broken-dce[{LEVEL}]"

    def test_duplicate_binding_rejected(self, tpch_catalog):
        """CSE variant that binds the same symbol twice."""

        def duplicate(program, context):
            body = program.body
            for stmt in body.stmts:
                if not stmt.expr.blocks:
                    stmts = list(body.stmts) + [stmt]
                    return _rebuild(program, Block(stmts, body.result,
                                                   body.params))
            return program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, duplicate, "broken-cse")
        assert exc.value.check == "scope"
        assert "single-assignment" in str(exc.value)

    @pytest.mark.parametrize("query, op", [
        ("Q1", "array_set"), ("Q16", "set_add"),
        # the write-back of a fold into the value a table slot holds
        ("Q6", "hashmap_agg_set"), ("Q18", "dense_agg_set"),
    ])
    def test_effectful_dce_rejected(self, tpch_catalog, query, op):
        """DCE variant that removes a *writing* statement: a fold into a
        group's accumulator record or table slot.

        The dangling-use checks cannot see this — a write's result is
        unused — so only the effect-legality audit catches it.  (Dropping
        the group lookup instead would leave the folds' uses dangling.)
        """

        def drop_write(block):
            for i, stmt in enumerate(block.stmts):
                if stmt.expr.op == op:
                    return Block(block.stmts[:i] + block.stmts[i + 1:],
                                 block.result, block.params), True
                for k, nested in enumerate(stmt.expr.blocks):
                    new_nested, done = drop_write(nested)
                    if done:
                        blocks = list(stmt.expr.blocks)
                        blocks[k] = new_nested
                        expr = Expr(stmt.expr.op, stmt.expr.args,
                                    dict(stmt.expr.attrs), tuple(blocks),
                                    stmt.expr.type)
                        stmts = list(block.stmts)
                        stmts[i] = Stmt(stmt.sym, expr)
                        return Block(stmts, block.result,
                                     block.params), True
            return block, False

        def mutate(program, context):
            body, done = drop_write(program.body)
            assert done, f"{query} no longer emits {op}"
            return _rebuild(program, body)

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, mutate, "effectful-dce", query=query)
        assert exc.value.check == "effects"
        assert "removable" in str(exc.value)
        assert exc.value.phase == f"effectful-dce[{LEVEL}]"

    @pytest.mark.parametrize("query, table, column, slot_type", [
        ("Q4", "lineitem", "l_orderkey", range),   # clustered key
        ("Q13", "orders", "o_custkey", list),
    ])
    def test_write_into_shared_partition_bucket_rejected(
            self, tpch_catalog, query, table, column, slot_type):
        """A variant that appends to a bucket of the catalog's resident
        partition: the bucket is shared by every query, request and thread,
        so generated code may only read it — whether the catalog serves it
        as a list or, over a clustered key, as a ``range`` (which would only
        fail at run time, and only once a probe hit)."""
        slots = tpch_catalog.access_layer().partition(table, column).slots
        assert all(type(slot) is slot_type for slot in slots)

        def rewrite(block, partitions):
            stmts = []
            for stmt in block.stmts:
                expr = stmt.expr
                stmts.append(Stmt(stmt.sym, Expr(
                    expr.op, expr.args, dict(expr.attrs),
                    tuple(rewrite(nested, partitions) for nested in expr.blocks),
                    expr.type)))
                if expr.op == "array_get" and expr.args[0] in partitions:
                    stmts.append(Stmt(Sym("mutwrite"), Expr(
                        "list_append", (stmt.sym, Const(0)))))
            return Block(stmts, block.result, block.params)

        def mutate(program, context):
            partitions = {stmt.sym for stmt in program.hoisted.stmts
                          if stmt.expr.op == "access_partition"
                          and stmt.expr.attrs["column"] == column}
            assert partitions, f"{query} no longer probes a resident partition"
            return _rebuild(program, rewrite(program.body, partitions))

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, mutate, "bucket-write", query=query)
        assert exc.value.check == "effects"
        assert "catalog-resident" in str(exc.value)
        assert exc.value.phase == f"bucket-write[{LEVEL}]"

    def test_reordered_writes_rejected(self, tpch_catalog):
        """Hoisting variant that swaps two effect-pinned statements."""

        def swap_writes(block):
            pinned = [i for i, stmt in enumerate(block.stmts)
                      if not effective_effect(stmt.expr)
                      .can_reorder_with_reads]
            if len(pinned) >= 2:
                stmts = list(block.stmts)
                i, j = pinned[0], pinned[1]
                stmts[i], stmts[j] = stmts[j], stmts[i]
                return Block(stmts, block.result, block.params), True
            for i, stmt in enumerate(block.stmts):
                for k, nested in enumerate(stmt.expr.blocks):
                    new_nested, done = swap_writes(nested)
                    if done:
                        blocks = list(stmt.expr.blocks)
                        blocks[k] = new_nested
                        expr = Expr(stmt.expr.op, stmt.expr.args,
                                    dict(stmt.expr.attrs), tuple(blocks),
                                    stmt.expr.type)
                        stmts = list(block.stmts)
                        stmts[i] = Stmt(stmt.sym, expr)
                        return Block(stmts, block.result,
                                     block.params), True
            return block, False

        def mutate(program, context):
            body, done = swap_writes(program.body)
            return _rebuild(program, body) if done else program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, mutate, "broken-hoisting")
        assert exc.value.check in ("effects", "scope")
        assert exc.value.phase == f"broken-hoisting[{LEVEL}]"

    def test_type_confusion_rejected(self, tpch_catalog):
        """Folding variant that rewrites an arithmetic operand to a string."""

        def confuse(block):
            for i, stmt in enumerate(block.stmts):
                if stmt.expr.op in ("add", "sub", "mul") \
                        and len(stmt.expr.args) == 2:
                    expr = Expr(stmt.expr.op,
                                (stmt.expr.args[0], Const("broken")),
                                dict(stmt.expr.attrs), (), stmt.expr.type)
                    stmts = list(block.stmts)
                    stmts[i] = Stmt(stmt.sym, expr)
                    return Block(stmts, block.result, block.params), True
                for k, nested in enumerate(stmt.expr.blocks):
                    new_nested, done = confuse(nested)
                    if done:
                        blocks = list(stmt.expr.blocks)
                        blocks[k] = new_nested
                        expr = Expr(stmt.expr.op, stmt.expr.args,
                                    dict(stmt.expr.attrs), tuple(blocks),
                                    stmt.expr.type)
                        stmts = list(block.stmts)
                        stmts[i] = Stmt(stmt.sym, expr)
                        return Block(stmts, block.result,
                                     block.params), True
            return block, False

        def mutate(program, context):
            body, done = confuse(program.body)
            return _rebuild(program, body) if done else program

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, mutate, "broken-folding")
        # The interval audit catches the widening (a string operand drives
        # the inferred interval to top) before the type checker runs; both
        # verdicts correctly reject the mutation at the faulty phase.
        assert exc.value.check in ("interval", "types")
        assert exc.value.phase == f"broken-folding[{LEVEL}]"

    def test_vocabulary_violation_rejected(self, tpch_catalog):
        """Lowering-ahead-of-time variant: a dense aggregation array — what
        the hash-table lowering introduces one level down — already at
        ScaLite[Map, List]."""
        level = "ScaLite[Map, List]"

        def emit_dense_table(program, context):
            body = program.body
            if any(stmt.expr.op == "dense_agg_new" for stmt in body.stmts):
                return program
            stmt = Stmt(Sym("dense"), Expr("dense_agg_new", (Const(4),)))
            return _rebuild(program, Block([stmt] + list(body.stmts),
                                           body.result, body.params))

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, emit_dense_table, "eager-lowering",
                            level=level)
        assert exc.value.check == "language"
        assert "dense_agg_new" in str(exc.value)
        assert exc.value.phase == f"eager-lowering[{level}]"

    def test_unparser_tampering_rejected(self, tpch_catalog, monkeypatch):
        """Generated-code lint: a module-level statement smuggled into the
        unparser output is rejected before ``exec`` ever sees it."""
        original = PythonUnparser.unparse

        def tampered(self, program):
            return original(self, program) + "\nleak = []\n"

        monkeypatch.setattr(PythonUnparser, "unparse", tampered)
        config = build_config(CONFIG)
        compiler = QueryCompiler(config.stack, config.flags, verify=True)
        with pytest.raises(VerificationError) as exc:
            compiler.compile(build_query(QUERY), tpch_catalog,
                             query_name=QUERY)
        assert exc.value.check == "codelint"
        assert exc.value.phase == f"unparse[{QUERY}]"

    def test_unconditional_copy_rejected(self, tpch_catalog):
        """A pass that copies its input whether or not it rewrote anything:
        the change-driven fixpoint would take every copy for a change and
        only stop at the iteration bound."""

        def copy_always(program, context):
            return _rebuild(program, program.body)

        with pytest.raises(VerificationError) as exc:
            compile_mutated(tpch_catalog, copy_always, "copying-pass")
        assert exc.value.check == "fixpoint"
        assert exc.value.phase == f"copying-pass[{LEVEL}]"
        assert "spurious rebuild" in str(exc.value)

    def test_broken_plan_rule_rejected(self, tpch_catalog):
        """Planner rule producing an invalid plan is named the moment it
        fires (per-rule re-validation, ``validate_rewrites``)."""
        from repro.dsl import qplan as Q
        from repro.dsl.expr import Col
        from repro.planner.planner import PlannerOptions
        from repro.planner.rewrite import (PlannerContext, PlanRule,
                                           apply_rules_fixpoint)

        class GhostProjection(PlanRule):
            name = "ghost-projection"

            def apply(self, node, context):
                if isinstance(node, Q.Project):
                    return None
                return Q.Project(node, [("ghost", Col("no_such_column"))])

        plan = build_query(QUERY)
        context = PlannerContext(
            catalog=tpch_catalog,
            options=PlannerOptions(validate_rewrites=True))
        with pytest.raises(VerificationError) as exc:
            apply_rules_fixpoint(plan, [GhostProjection()], context)
        assert exc.value.check == "plan"
        assert exc.value.phase == "ghost-projection"
