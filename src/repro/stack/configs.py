"""The stack configurations evaluated in the paper (Section 7, Table 3).

Each configuration is a :class:`~repro.stack.pipeline.DslStack` plus the
optimization flags that gate individual transformations:

=====================  ==========================================================
configuration          stack / optimizations
=====================  ==========================================================
``template-expander``  QPlan → C.Py in one lowering and nothing else: the
                       degenerate stack the paper argues against.  There is no
                       level to host an optimization, so there are none (the
                       Table 3 baseline column).
``dblab-2``            QPlan → C.Py.  Pipelining (push engine) only; boxed
                       records, generic containers.
``dblab-3``            QPlan → ScaLite → C.Py.  Adds data layout (row tuples /
                       scalar fields), scalar replacement, DCE, CSE, partial
                       evaluation, allocation hoisting, unused-field removal.
``dblab-4``            QPlan → ScaLite[Map, List] → ScaLite → C.Py.  Adds string
                       dictionaries, hash-table specialization, automatic index
                       inference and data-structure partitioning.
``dblab-5``            QPlan → ScaLite[Map, List] → ScaLite[List] → ScaLite →
                       C.Py.  Adds list specialization (primary-key maps become
                       direct arrays) and the fine-grained control-flow
                       optimizations.
``tpch-compliant``     The five-level stack with string dictionaries,
                       partitioning, index inference and unused-field removal
                       disabled (footnote 11 of the paper).
=====================  ==========================================================
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..transforms.control_flow import BranchlessBooleans
from ..transforms.dce import DeadCodeElimination
from ..transforms.field_removal import UnusedFieldRemoval
from ..transforms.folding import DataflowFolding
from ..transforms.fusion import MonadFusionRules, QMonadShortcutFusionLowering
from ..transforms.hashmap_specialization import HashTableSpecialization
from ..transforms.licm import LoopInvariantHoisting
from ..transforms.list_specialization import ListSpecialization
from ..transforms.lower_to_cpy import ScaLiteToCPy
from ..transforms.memory_hoisting import MemoryAllocationHoisting
from ..transforms.partial_eval import PartialEvaluation
from ..transforms.pipelining import PushPipelineLowering
from ..transforms.scalar_replacement import ScalarReplacement
from ..transforms.string_dictionary import StringDictionaries
from .context import OptimizationFlags
from .language import C_PY, QMONAD, QPLAN, SCALITE, SCALITE_LIST, SCALITE_MAP_LIST
from .pipeline import DslStack

#: The configuration names, in the order Table 3 reports them.
CONFIG_NAMES = ("template-expander", "dblab-2", "dblab-3", "dblab-4", "dblab-5",
                "tpch-compliant")

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
    """A named stack configuration: the DSL stack plus its optimization flags."""

    name: str
    stack: DslStack
    flags: OptimizationFlags
    levels: int

    def describe(self) -> str:
        return f"{self.name}: {self.levels} levels; flags: {', '.join(self.flags.enabled())}"


def _flags_level2() -> OptimizationFlags:
    # Pipelining (the push-engine lowering) is the stack itself, not an
    # option: level 2 runs with every optional optimization off.
    return OptimizationFlags.all_disabled()


def _flags_level3() -> OptimizationFlags:
    return _flags_level2().copy_with(
        data_layout=True, scalar_replacement=True, dce=True,
        partial_evaluation=True, memory_hoisting=True,
        unused_field_removal=True, subplan_sharing=True,
        dataflow_folding=True, loop_invariant_code_motion=True)


def _flags_level4() -> OptimizationFlags:
    return _flags_level3().copy_with(
        hash_table_specialization=True, automatic_index_inference=True,
        data_structure_partitioning=True, string_dictionaries=True,
        catalog_access_layer=True)


def _flags_level5() -> OptimizationFlags:
    # Note: the branchless-boolean rewrite (`x && y` -> `x & y`, Appendix E)
    # is implemented and covered by tests but left off by default: under
    # CPython the bitwise operators dispatch through `__and__` and are slower
    # than the short-circuit jumps they replace, the opposite of compiled C.
    return _flags_level4().copy_with(
        list_specialization=True, control_flow_opts=False,
        horizontal_fusion=True)


def _flags_tpch_compliant() -> OptimizationFlags:
    """Footnote 11: disable the four optimizations that bend the TPC-H rules.

    The catalog access layer is load-time work amortised across queries —
    the same rule-bending the footnote excludes — so it is disabled with
    them (the parity suite re-enables it explicitly to prove correctness).
    """
    return _flags_level5().copy_with(
        string_dictionaries=False, data_structure_partitioning=False,
        automatic_index_inference=False, unused_field_removal=False,
        catalog_access_layer=False)


def build_config(name: str, planner: bool = False) -> StackConfig:
    """Build one of the named stack configurations.

    ``planner=True`` enables the QPlan-level logical optimizer
    (:mod:`repro.planner`) as a pre-pass of the query compiler: predicate
    pushdown, field pruning, constant folding and nested-loop-to-hash-join
    conversion run before the stack lowers the plan.  The compiled-query
    cache is then keyed on the optimized plan's fingerprint.
    """
    config = _build_config(name)
    if planner:
        config.flags = config.flags.copy_with(logical_plan_optimizer=True)
    return config


def _build_config(name: str) -> StackConfig:
    if name == "template-expander":
        # A template expander is a stack with a single lowering: plan to
        # target code in one step, with no intermediate level where an
        # optimization could live.
        stack = DslStack(name, languages=[QPLAN, C_PY],
                         lowerings=[PushPipelineLowering(C_PY)])
        return StackConfig(name, stack, OptimizationFlags.all_disabled(), levels=2)

    if name == "dblab-2":
        stack = DslStack(
            name,
            languages=[QPLAN, QMONAD, C_PY],
            lowerings=[PushPipelineLowering(C_PY), QMonadShortcutFusionLowering(C_PY)],
            optimizations=[MonadFusionRules()])
        return StackConfig(name, stack, _flags_level2(), levels=2)

    if name == "dblab-3":
        stack = DslStack(
            name,
            languages=[QPLAN, QMONAD, SCALITE, C_PY],
            lowerings=[PushPipelineLowering(SCALITE),
                       QMonadShortcutFusionLowering(SCALITE),
                       ScaLiteToCPy()],
            optimizations=[
                UnusedFieldRemoval(),
                MonadFusionRules(),
                ScalarReplacement(SCALITE),
                PartialEvaluation(SCALITE),
                DataflowFolding(SCALITE),
                LoopInvariantHoisting(SCALITE),
                DeadCodeElimination(SCALITE),
                MemoryAllocationHoisting(SCALITE),
            ])
        return StackConfig(name, stack, _flags_level3(), levels=3)

    if name == "dblab-4":
        stack = DslStack(
            name,
            languages=[QPLAN, QMONAD, SCALITE_MAP_LIST, SCALITE, C_PY],
            lowerings=[
                PushPipelineLowering(SCALITE_MAP_LIST),
                QMonadShortcutFusionLowering(SCALITE_MAP_LIST),
                HashTableSpecialization(SCALITE),
                ScaLiteToCPy(),
            ],
            optimizations=[
                UnusedFieldRemoval(),
                MonadFusionRules(),
                StringDictionaries(SCALITE_MAP_LIST),
                ScalarReplacement(SCALITE),
                PartialEvaluation(SCALITE),
                DataflowFolding(SCALITE),
                LoopInvariantHoisting(SCALITE),
                DeadCodeElimination(SCALITE),
                MemoryAllocationHoisting(SCALITE),
            ])
        return StackConfig(name, stack, _flags_level4(), levels=4)

    if name in ("dblab-5", "tpch-compliant"):
        stack = DslStack(
            name,
            languages=[QPLAN, QMONAD, SCALITE_MAP_LIST, SCALITE_LIST, SCALITE, C_PY],
            lowerings=[
                PushPipelineLowering(SCALITE_MAP_LIST),
                QMonadShortcutFusionLowering(SCALITE_MAP_LIST),
                HashTableSpecialization(SCALITE_LIST, defer_unique_to_list_level=True),
                ListSpecialization(),
                ScaLiteToCPy(),
            ],
            optimizations=[
                UnusedFieldRemoval(),
                MonadFusionRules(),
                StringDictionaries(SCALITE_MAP_LIST),
                ScalarReplacement(SCALITE),
                PartialEvaluation(SCALITE),
                DataflowFolding(SCALITE),
                LoopInvariantHoisting(SCALITE),
                DeadCodeElimination(SCALITE),
                MemoryAllocationHoisting(SCALITE),
                BranchlessBooleans(C_PY),
            ])
        flags = _flags_level5() if name == "dblab-5" else _flags_tpch_compliant()
        return StackConfig(name, stack, flags, levels=5)

    raise KeyError(f"unknown stack configuration {name!r}; known: {CONFIG_NAMES}")


def all_configs(planner: bool = False) -> List[StackConfig]:
    return [build_config(name, planner=planner) for name in CONFIG_NAMES]


def config_flags(name: str) -> OptimizationFlags:
    return build_config(name).flags
