"""The stack configurations evaluated in the paper (Section 7, Table 3).

A configuration *is* its stack: the languages on the chain, one lowering
between each adjacent pair, and the optimizations listed for each language
are everything that runs.  :data:`_ROWS` is Table 3 written down once:

=====================  ==========================================================
configuration          stack
=====================  ==========================================================
``template-expander``  QPlan → C.Py in one lowering and nothing else: the
                       degenerate stack the paper argues against.  There is no
                       level to host an optimization, so there are none (the
                       Table 3 baseline column).
``dblab-2``            QPlan → C.Py.  Pipelining (push engine) only; boxed
                       records, generic containers.
``dblab-3``            QPlan → ScaLite → C.Py.  Adds data layout (row tuples /
                       scalar fields), DCE, constant and dataflow folding,
                       loop-invariant hoisting, allocation hoisting,
                       unused-field removal.
``dblab-4``            QPlan → ScaLite[Map, List] → ScaLite → C.Py.  Adds string
                       dictionaries, hash-table specialization, automatic index
                       inference and data-structure partitioning.
``dblab-5``            QPlan → ScaLite[Map, List] → ScaLite[List] → ScaLite →
                       C.Py.  Adds list specialization (primary-key maps become
                       direct arrays) and QMonad fusion.
``tpch-compliant``     The five-level stack without string dictionaries,
                       unused-field removal and the catalog access layer —
                       hence no loading-time partitioning of base-relation
                       builds (footnote 11 of the paper).
=====================  ==========================================================

Every ``dblab-N`` also takes QMonad chains (a second front end over the same
levels).  Every optimization under :mod:`repro.transforms` is listed by some
row: a pass that no configuration runs has no place in the library.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from ..transforms.dce import DeadCodeElimination
from ..transforms.field_removal import UnusedFieldRemoval
from ..transforms.folding import DataflowFolding
from ..transforms.fusion import MonadFusionRules, QMonadShortcutFusionLowering
from ..transforms.hashmap_specialization import HashTableSpecialization
from ..transforms.licm import LoopInvariantHoisting
from ..transforms.list_specialization import ListSpecialization
from ..transforms.lower_to_cpy import ScaLiteToCPy
from ..transforms.memory_hoisting import MemoryAllocationHoisting
from ..transforms.pipelining import PushPipelineLowering
from ..transforms.string_dictionary import StringDictionaries
from .context import OptimizationFlags
from .language import (C_PY, Language, QMONAD, QPLAN, SCALITE, SCALITE_LIST,
                       SCALITE_MAP_LIST)
from .pipeline import DslStack

#: Engines that execute QPlan trees directly, without a DSL stack.  They are
#: selectable everywhere a stack configuration is (benchmark harness, Table 3
#: engine column): the row-at-a-time Volcano interpreter and the vectorized
#: columnar engine (batch-at-a-time, selection vectors, compiled expression
#: closures).
DIRECT_ENGINE_NAMES = ("interpreter", "vectorized")


def build_direct_engine(name: str, catalog):
    """Instantiate one of the non-stack execution engines against a catalog."""
    if name == "interpreter":
        from ..engine.volcano import VolcanoEngine
        return VolcanoEngine(catalog)
    if name == "vectorized":
        from ..engine.vectorized import VectorizedEngine
        return VectorizedEngine(catalog)
    raise KeyError(f"unknown direct engine {name!r}; known: {DIRECT_ENGINE_NAMES}")


@dataclass
class StackConfig:
    """A named stack configuration: the DSL stack plus the caller-set flags."""

    name: str
    stack: DslStack
    flags: OptimizationFlags

    @property
    def levels(self) -> int:
        return self.stack.level_count(QPLAN)

    def describe(self) -> str:
        return f"{self.name}: {self.levels} levels; flags: {', '.join(self.flags.enabled())}"


#: the lowering out of each front end / level, given the next language down
_LOWERING_OUT_OF = {
    QPLAN: PushPipelineLowering,
    QMONAD: QMonadShortcutFusionLowering,
    SCALITE_MAP_LIST: HashTableSpecialization,
    SCALITE_LIST: lambda target: ListSpecialization(),
    SCALITE: lambda target: ScaLiteToCPy(),
}

#: the optimizations each level below the front ends hosts, in run order
_LEVEL_PASSES = {
    SCALITE_MAP_LIST: (StringDictionaries,),
    SCALITE: (DataflowFolding, LoopInvariantHoisting, DeadCodeElimination,
              MemoryAllocationHoisting),
}


@dataclass(frozen=True)
class _Row:
    """One row of Table 3: what the named configuration's stack contains."""

    #: the levels below the front ends, top down, ending in C.Py
    chain: Tuple[Language, ...]
    front_ends: Tuple[Language, ...] = (QPLAN, QMONAD)
    #: front-end optimizations (they arrive with a level count, not a language)
    front_end_passes: Tuple[type, ...] = ()
    #: passes the chain would bring that this stack leaves out
    without: Tuple[type, ...] = ()
    catalog_access_layer: bool = False
    subplan_sharing: bool = True


_ROWS = {
    # plan to target code in one step, no level where an optimization could live
    "template-expander": _Row((C_PY,), front_ends=(QPLAN,), subplan_sharing=False),
    "dblab-2": _Row((C_PY,), subplan_sharing=False),
    "dblab-3": _Row((SCALITE, C_PY), front_end_passes=(UnusedFieldRemoval,)),
    "dblab-4": _Row((SCALITE_MAP_LIST, SCALITE, C_PY),
                    front_end_passes=(UnusedFieldRemoval,),
                    catalog_access_layer=True),
    "dblab-5": _Row((SCALITE_MAP_LIST, SCALITE_LIST, SCALITE, C_PY),
                    front_end_passes=(UnusedFieldRemoval, MonadFusionRules),
                    catalog_access_layer=True),
}
# Footnote 11: without the optimizations that bend the TPC-H rules.  The
# catalog access layer is load-time work amortised across queries — the same
# rule-bending, and the only source of base-table partitions — so it is off
# with them (the parity suite re-enables it explicitly to prove correctness).
_ROWS["tpch-compliant"] = replace(
    _ROWS["dblab-5"], without=(StringDictionaries, UnusedFieldRemoval),
    catalog_access_layer=False)

#: The configuration names, in the order Table 3 reports them.
CONFIG_NAMES = tuple(_ROWS)


def build_config(name: str, planner: bool = False) -> StackConfig:
    """Build one of the named stack configurations.

    ``planner=True`` enables the QPlan-level logical optimizer
    (:mod:`repro.planner`) as a pre-pass of the query compiler: predicate
    pushdown, field pruning, constant folding, top-k fusion, join-strategy
    selection and access-path selection run before the stack lowers the
    plan.  The compiled-query
    cache is then keyed on the optimized plan's fingerprint.
    """
    if name not in _ROWS:
        raise KeyError(f"unknown stack configuration {name!r}; known: {CONFIG_NAMES}")
    row = _ROWS[name]
    top = row.chain[0]
    lowerings = [_LOWERING_OUT_OF[front_end](top) for front_end in row.front_ends]
    lowerings += [_LOWERING_OUT_OF[source](target)
                  for source, target in zip(row.chain, row.chain[1:])]
    optimizations = [make() for make in row.front_end_passes
                     if make not in row.without]
    optimizations += [make(level) for level in row.chain
                      for make in _LEVEL_PASSES.get(level, ())
                      if make not in row.without]
    stack = DslStack(name, languages=row.front_ends + row.chain,
                     lowerings=lowerings, optimizations=optimizations)
    return StackConfig(name, stack, OptimizationFlags(
        logical_plan_optimizer=planner,
        catalog_access_layer=row.catalog_access_layer,
        subplan_sharing=row.subplan_sharing))


def config_flags(name: str) -> OptimizationFlags:
    return build_config(name).flags
