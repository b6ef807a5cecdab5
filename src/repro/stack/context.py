"""Compilation context threaded through every transformation of the stack.

The context carries everything a transformation may consult besides the
program itself: the schema catalog with primary/foreign-key annotations, data
statistics used for worst-case size analysis (Section D.1), the annotation
side-table (Section 3.3), and the option flags that enable or disable
individual optimizations (used to assemble the 2/3/4/5-level and
TPC-H-compliant configurations of the evaluation).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..ir.annotations import AnnotationTable


@dataclass
class OptimizationFlags:
    """Feature flags controlling which optimizations a stack configuration applies.

    The defaults correspond to the full five-level DBLAB/LB configuration.
    The TPC-H compliant configuration of Section 7 turns off string
    dictionaries, data-structure partitioning, automatic index inference and
    unused-field removal.
    """

    #: runs the QPlan-level logical optimizer (repro.planner) as a pre-pass
    #: before the stack; off by default — the paper's configurations compile
    #: the hand-written plans as-is, the planner is an extra layer on top.
    logical_plan_optimizer: bool = False
    data_layout: bool = True
    scalar_replacement: bool = True
    dce: bool = True
    partial_evaluation: bool = True
    memory_hoisting: bool = True
    hash_table_specialization: bool = True
    list_specialization: bool = True
    automatic_index_inference: bool = True
    data_structure_partitioning: bool = True
    string_dictionaries: bool = True
    unused_field_removal: bool = True
    #: compiled pipelines consume the *catalog-resident* physical access layer
    #: (repro.storage.access): PrunedScan candidate slices, IndexJoin probes of
    #: the load-time PK indices, and the shared sorted string dictionaries —
    #: instead of rebuilding per-query structures in the hoisted block.
    catalog_access_layer: bool = True
    #: repeated subplans (qplan.shared_subplan_fingerprints) are materialised
    #: once behind a binding in the generated program and replayed for every
    #: further occurrence — the IR-level counterpart of the direct engines'
    #: common-subtree sharing.
    subplan_sharing: bool = True
    control_flow_opts: bool = True
    horizontal_fusion: bool = True
    #: dataflow-analysis-driven rewrites (repro.analysis.dataflow): dead-branch
    #: elimination and always-true/false predicate folding from the interval +
    #: nullability analysis, with per-rewrite justifications recorded for the
    #: verifier's transition audit.
    dataflow_folding: bool = True
    #: hoist pure loop-invariant bindings out of loop bodies, justified by the
    #: purity/escape analysis (only non-escaping, exception-free computations
    #: whose operands are defined outside the loop).
    loop_invariant_code_motion: bool = True

    @classmethod
    def all_disabled(cls) -> "OptimizationFlags":
        return cls(**{name: False for name in cls().__dict__})

    def copy_with(self, **overrides: bool) -> "OptimizationFlags":
        values = dict(self.__dict__)
        values.update(overrides)
        return OptimizationFlags(**values)

    def enabled(self) -> List[str]:
        return sorted(name for name, value in self.__dict__.items() if value)


@dataclass
class CompilationContext:
    """Mutable state shared by the transformations of one compilation run.

    Attributes:
        catalog: the schema catalog (``repro.storage.catalog.Catalog``);
            optional so that pure IR-level tests can run without a database.
        flags: the optimization feature flags of the active configuration.
        annotations: symbol annotation table (guided from higher levels).
        query_name: human readable name used in generated code and reports.
        trace: per-phase log filled in by the pipeline (names, timings,
            statement counts) — the raw material for Figure 9.
        info: free-form scratch space for transformations that need to hand
            facts to later phases (e.g. string-dictionary columns chosen).
    """

    catalog: Optional[Any] = None
    flags: OptimizationFlags = field(default_factory=OptimizationFlags)
    annotations: AnnotationTable = field(default_factory=AnnotationTable)
    query_name: str = "query"
    trace: List[Dict[str, Any]] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)

    def record_phase(self, name: str, kind: str, seconds: float, detail: str = "") -> None:
        self.trace.append({"phase": name, "kind": kind, "seconds": seconds, "detail": detail})

    def statistics(self):
        """Data statistics of the catalog (or ``None`` when no catalog is set)."""
        if self.catalog is None:
            return None
        return getattr(self.catalog, "statistics", None)
