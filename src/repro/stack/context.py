"""Compilation context threaded through every transformation of the stack.

The context carries everything a transformation may consult besides the
program itself: the schema catalog with primary/foreign-key annotations, data
statistics used for worst-case size analysis (Section D.1), and the three
options a caller sets independently of the stack.  The facts Section 3.3
keeps per symbol are not here: ANF gives each statement one symbol, so a
lowering attaches them to that statement as ``attrs`` (key ranges and
uniqueness on ``mmap_new`` / ``hashmap_agg_new``, see
``transforms/pipelining.py``).  *Which transformations run* is not an
option: a configuration is its stack (Section 7, Table 3), so the pass list
of the :class:`~repro.stack.pipeline.DslStack` decides that.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class OptimizationFlags:
    """What a caller chooses on top of a stack: three switches, none of which
    adds or removes a transformation.  Frozen and hashable — it is part of
    every compiled-query cache key."""

    #: runs the QPlan-level logical optimizer (repro.planner) as a pre-pass
    #: before the stack; off by default — the paper's configurations compile
    #: the hand-written plans as-is, the planner is an extra layer on top.
    logical_plan_optimizer: bool = False
    #: compiled pipelines consume the *catalog-resident* physical access layer
    #: (repro.storage.access): PrunedScan candidate slices, resident
    #: partitions for base-table hash builds (an IndexJoin's is the load-time
    #: PK index), and the shared sorted string dictionaries.  It is the only
    #: source of loading-time structures: off, string comparisons stay string
    #: comparisons and every hash build is the ordinary per-query build.
    catalog_access_layer: bool = True
    #: repeated subplans (qplan.shared_subplan_fingerprints) are materialised
    #: once behind a binding in the generated program and replayed for every
    #: further occurrence — the IR-level counterpart of the vectorized
    #: engine's common-subtree sharing.
    subplan_sharing: bool = True

    def copy_with(self, **overrides: bool) -> "OptimizationFlags":
        return replace(self, **overrides)

    def enabled(self) -> List[str]:
        return [f.name for f in fields(self) if getattr(self, f.name)]


@dataclass
class CompilationContext:
    """Mutable state shared by the transformations of one compilation run.

    Attributes:
        catalog: the schema catalog (``repro.storage.catalog.Catalog``);
            optional so that pure IR-level tests can run without a database.
        flags: the caller-set options of the active configuration.
        query_name: human readable name used in generated code and reports.
        info: free-form scratch space for transformations that need to hand
            facts to later phases (e.g. string-dictionary columns chosen).
    """

    catalog: Optional[Any] = None
    flags: OptimizationFlags = field(default_factory=OptimizationFlags)
    query_name: str = "query"
    info: Dict[str, Any] = field(default_factory=dict)

    def statistics(self):
        """Data statistics of the catalog (or ``None`` when no catalog is set)."""
        if self.catalog is None:
            return None
        return getattr(self.catalog, "statistics", None)
