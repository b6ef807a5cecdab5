"""A compiled-cache entry is code: it keeps nothing of the IR it came from.

Checked structurally, not by byte count — a ``gc.get_referents`` walk from
every ``COMPILED`` entry must reach no instance of a class defined under
``repro.ir`` — and ``QueryCompiler.lower`` must be the same program
``compile`` unparses.
"""
import gc
import sys

import pytest

from repro.codegen.compiler import CompiledQuery, QueryCompiler
from repro.codegen.unparser import PythonUnparser
from repro.ir.nodes import Program, reset_symbol_counter
from repro.robustness.fallback import HardenedExecutor
from repro.stack.configs import CONFIG_NAMES, build_config
from repro.storage.derived import COMPILED
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import QUERY_NAMES, build_query


@pytest.fixture(autouse=True)
def fresh_cache():
    QueryCompiler.clear_cache()
    yield
    QueryCompiler.clear_cache()


def reachable_instances(roots, exclude):
    """Every object reachable from ``roots`` through ``gc.get_referents``.

    Namespaces of code are not state of the entry and are not entered:
    modules, their ``__dict__`` (a function's ``__globals__``) and classes.
    """
    module_dicts = {id(vars(module)) for module in list(sys.modules.values())}
    seen = {id(obj) for obj in exclude}
    stack = list(roots)
    found = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in module_dicts \
                or isinstance(obj, (type, type(sys))):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_warm_cache_entries_reach_no_ir():
    catalog = generate_catalog(scale_factor=0.001, seed=20160626)
    executor = HardenedExecutor(catalog)
    for name in QUERY_NAMES:
        executor.warm(build_query(name), name)
    derived = catalog.access_layer().derived
    # warmed entries are declared repeat traffic: all of them protected
    entries = list(derived._protected[COMPILED].values())
    assert len(entries) == derived.entry_count(COMPILED) == len(QUERY_NAMES)
    assert all(isinstance(entry, CompiledQuery) for entry in entries)

    reached = reachable_instances(entries, exclude=[catalog])
    ir_instances = [obj for obj in reached
                    if type(obj).__module__.startswith("repro.ir")]
    assert ir_instances == []
    # the walk is not vacuous: it does see the entries' code and plans ...
    assert any(type(obj).__name__ == "function" for obj in reached)
    assert any(type(obj).__module__ == "repro.dsl.qplan" for obj in reached)
    # ... and does see IR when IR is there
    config = build_config("dblab-5")
    lowered = QueryCompiler(config.stack, config.flags).lower(
        build_query("Q6"), catalog, "Q6")
    assert any(isinstance(obj, Program)
               for obj in reachable_instances([lowered], exclude=[catalog]))


@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_lower_returns_the_program_compile_unparses(tpch_catalog, config_name):
    config = build_config(config_name)
    compiler = QueryCompiler(config.stack, config.flags)
    for name in ("Q3", "Q15", "Q21"):
        reset_symbol_counter()   # symbol names carry a process-wide serial
        lowered = compiler.lower(build_query(name), tpch_catalog, name)
        reset_symbol_counter()
        compiled = compiler.compile(build_query(name), tpch_catalog, name)
        assert PythonUnparser(name).unparse(lowered.program) == compiled.source
        assert [p.name for p in lowered.phases] == \
            [p.name for p in compiled.phases]
        assert not hasattr(compiled, "program")
