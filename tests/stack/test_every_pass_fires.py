"""The pass gate: a pass a configuration lists changes some program.

The twin of ``tests/ir/test_vocabulary.py`` for passes.  For each of the six
configurations the 22 planned TPC-H queries are lowered with an observer on
the fixpoint driver, ``observer(step, before, after)``, which records every
pass that returned something other than its input.  A listed pass the sweep
never sees change a program must be in ``UNFIRED`` with a producer — a
program on which the configuration's own instance of the pass does change
something — and a pass in ``UNFIRED`` that does fire fails the test, so the
table can only shrink.
"""
import pytest

from repro.codegen.compiler import QueryCompiler
from repro.ir import Const, IRBuilder, make_program
from repro.stack import CompilationContext, pipeline
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.stack.transformation import apply_fixpoint
from repro.tpch.queries import QUERY_NAMES, build_query
from test_identity_fixpoint import fusable_chain


def _record_read_back(catalog):
    """A field read out of a record built in the same block."""
    b = IRBuilder()
    record = b.emit("record_new", [b.emit("add", [1, 2]), Const(7)],
                    attrs={"fields": ("x", "y"), "layout": "boxed"})
    field = b.emit("record_get", [record], attrs={"field": "y"})
    return make_program(b.finish(b.emit("mul", [field, 2])), [], "ScaLite")


def _constant_arithmetic(catalog):
    b = IRBuilder()
    return make_program(b.finish(b.emit("mul", [b.emit("add", [2, 3]), 4])), [],
                        "ScaLite")


def _unplanned_query(catalog):
    """Q6 as written: the planner's own pruning is what leaves nothing over."""
    return build_query("Q6")


#: listed passes no planned TPC-H lowering sees change a program ->
#: (what makes them fire, a producer of that program).
UNFIRED = {
    "scalar-replacement[ScaLite]": ("a record built and read in one block",
                                    _record_read_back),
    "partial-evaluation[ScaLite]": ("arithmetic over constants", _constant_arithmetic),
    "unused-field-removal[QPlan]": ("a plan the planner has not pruned",
                                    _unplanned_query),
    "monad-fusion[QMonad]": ("a QMonad chain (the 22 queries are QPlan)",
                             lambda catalog: fusable_chain()),
}


@pytest.fixture(scope="module")
def fired(tpch_catalog):
    """configuration -> names of the passes that changed a planned query."""
    changed = set()

    def observed(steps, program, context, *args, **kwargs):
        def observer(step, before, after):
            if after is not before:
                changed.add(step.name)
        return apply_fixpoint(steps, program, context, *args, observer=observer)

    result = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "apply_fixpoint", observed)
        for config_name in CONFIG_NAMES:
            changed.clear()
            config = build_config(config_name, planner=True)
            compiler = QueryCompiler(config.stack, config.flags)
            for query in QUERY_NAMES:
                compiler.lower(build_query(query), tpch_catalog, query)
            result[config_name] = set(changed)
    return result


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_every_listed_pass_fires_or_names_its_producer(fired, config_name):
    listed = [opt.name for opt in build_config(config_name).stack.optimizations]
    assert fired[config_name] <= set(listed)
    assert {name for name in listed if name not in fired[config_name]} \
        == {name for name in listed if name in UNFIRED}


@pytest.mark.parametrize("name", sorted(UNFIRED))
def test_named_producers_make_their_pass_fire(tpch_catalog, name):
    who, produce = UNFIRED[name]
    runs = 0
    for config_name in CONFIG_NAMES:
        config = build_config(config_name)
        for opt in config.stack.optimizations:
            if opt.name != name:
                continue
            program = produce(tpch_catalog)
            context = CompilationContext(catalog=tpch_catalog, flags=config.flags)
            assert opt.run(program, context) is not program, f"{config_name}: {who}"
            runs += 1
    assert runs, f"{name} is in no configuration: delete its row"
