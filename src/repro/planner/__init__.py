"""Plan-level logical optimizer (the highest transformation layer).

A rule-based rewrite framework over :mod:`repro.dsl.qplan` operator trees,
mirroring the fixpoint organization of the DSL stack one level up: predicate
pushdown, field pruning, constant folding and top-k fusion always run;
statistics-driven join-strategy selection (build-side swap, greedy join
reordering) and physical access-path selection are on by default.

Entry points:

* :class:`Planner` — optimize a plan against a catalog,
* :class:`PlannerOptions` — choose the optional rule phases;
  ``PlannerOptions.exact_order()`` keeps only the rules that preserve row
  order and float accumulation order exactly,
* :func:`sort_contract` — the ordering guarantee of a plan's output, which
  is what allows the order-perturbing join rules to run by default,
* :meth:`Planner.explain` — before/after trees plus the applied-rule log.
"""
from .access_rules import (IndexJoinSelection, PrunedScanSelection,
                           index_eligible_build)
from .cardinality import CardinalityEstimator
from .ordering import SortContract, sort_contract
from .planner import Planner, PlannerOptions, PlanReport
from .pruning import prune_plan
from .rewrite import PlannerContext, PlannerError, PlanRule, apply_rules_fixpoint
from .rules import BuildSideSwap, ConstantFolding, PredicatePushdown, TopKFusion

__all__ = [
    "BuildSideSwap",
    "IndexJoinSelection",
    "PrunedScanSelection",
    "index_eligible_build",
    "CardinalityEstimator",
    "ConstantFolding",
    "Planner",
    "PlannerContext",
    "PlannerError",
    "PlannerOptions",
    "PlanReport",
    "PlanRule",
    "PredicatePushdown",
    "SortContract",
    "TopKFusion",
    "apply_rules_fixpoint",
    "prune_plan",
    "sort_contract",
]
