"""The vocabulary gate: an IR op is registered iff something in ``src/``
emits it, and every registered op can be unparsed.

The sweep lowers the 22 planned TPC-H queries under the six configurations
with the catalog access layer on and off (264 lowerings) and collects the ops
of the final programs.  Whatever the sweep does not reach must be listed in
``UNREACHED`` with the code that emits it, and each listed producer is run.
"""
import inspect
import re

import pytest

from repro.codegen import runtime
from repro.codegen.compiler import QueryCompiler
from repro.codegen.unparser import PythonUnparser
from repro.dsl import expr as E
from repro.dsl import qplan as Q
from repro.dsl.expr import col, like
from repro.ir import IRBuilder, make_program
from repro.ir.ops import REGISTRY
from repro.ir.traversal import ops_used
from repro.planner import Planner
from repro.stack import C_PY, CompilationContext
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.tpch.queries import QUERY_NAMES, build_query
from repro.transforms.control_flow import BranchlessBooleans


def _lowered_ops(plan, catalog, config_name="dblab-5", access=True):
    config = build_config(config_name)
    flags = config.flags.copy_with(catalog_access_layer=access)
    return ops_used(QueryCompiler(config.stack, flags).lower(plan, catalog, "q").program)


def _unary_minus(catalog):
    plan = Q.Project(Q.Scan("part"), [("m", E.UnaryOp("-", col("p_size")))])
    return _lowered_ops(plan, catalog)


def _branchless(catalog):
    b = IRBuilder()
    x, y = b.emit("lt", [1, 2]), b.emit("gt", [3, 4])
    both = b.emit("tuple_new", [b.emit("and_", [x, y]), b.emit("or_", [x, y])])
    program = make_program(b.finish(both), [], "C.Py")
    return ops_used(BranchlessBooleans(C_PY).run(program, CompilationContext()))


def _per_query_prefix_dictionary(catalog):
    plan = Q.Select(Q.Scan("part"), like(col("p_type"), "PROMO%"))
    return _lowered_ops(plan, catalog, access=False)


def _while_loop(catalog):
    b = IRBuilder()
    b.while_(lambda: b.const(False), lambda: None)
    return ops_used(make_program(b.finish(None), [], "ScaLite"))


#: ops no planned TPC-H lowering contains -> (who in ``src/`` emits them, a
#: run of that producer).  ``print_`` has none: it stays as the effect
#: lattice's only ``IO`` witness, the reference for "never removed, never
#: reordered".
UNREACHED = {
    "neg": ("ScalarCompiler on a unary minus", _unary_minus),
    "band": ("BranchlessBooleans over and_", _branchless),
    "bor": ("BranchlessBooleans over or_", _branchless),
    "strdict_prefix_range": ("StringDictionaries on a prefix predicate with "
                             "the access layer off",
                             _per_query_prefix_dictionary),
    "while_": ("IRBuilder.while_", _while_loop),
    "print_": ("no producer: the IO witness", None),
}


def test_every_registered_op_is_emitted_by_a_stack_or_names_its_producer(tpch_catalog):
    planner = Planner.for_catalog(tpch_catalog)
    planned = {name: planner.optimize(build_query(name)) for name in QUERY_NAMES}
    seen = set()
    for config_name in CONFIG_NAMES:
        for access in (True, False):
            for name in QUERY_NAMES:
                seen |= _lowered_ops(planned[name], tpch_catalog, config_name, access)
    assert REGISTRY.names() - seen == set(UNREACHED)


@pytest.mark.parametrize("op", [op for op, (_, run) in UNREACHED.items() if run])
def test_named_producers_emit_their_op(tpch_catalog, op):
    who, run = UNREACHED[op]
    assert op in run(tpch_catalog), who


def test_unparser_handlers_are_the_registry():
    """One ``_op_*`` emission rule per registered op and none besides, each
    naming only ``_rt`` helpers the runtime module really has."""
    handlers = {name[len("_op_"):] for name in vars(PythonUnparser)
                if name.startswith("_op_")}
    assert handlers == REGISTRY.names()
    helpers = set(re.findall(r"_rt\.(\w+)", inspect.getsource(PythonUnparser)))
    assert helpers and all(hasattr(runtime, helper) for helper in helpers)
