"""The logical plan optimizer: rule configuration, driver and reporting.

The planner sits *above* the DSL stack: it rewrites QPlan operator trees
before any engine — the Volcano interpreter, the vectorized engine or a
compiled stack configuration — consumes them.  In the
paper's terms it is one more transformation level at the highest abstraction
layer, organized exactly like the lower ones: small rules applied to a fixed
point, each at the level where the rewrite is trivial to express.

The rule phases, in order:

1. the logical rule sweep: constant folding over scalar expression trees,
   predicate pushdown with conjunct splitting, and top-k fusion (``Limit``
   over ``Sort`` -> bounded-heap ``TopK``),
2. statistics-driven join strategy: build-side swap and greedy join-chain
   reordering,
3. scan field / projection / aggregate pruning,
4. physical access-path selection (:mod:`repro.planner.access_rules`):
   ``Select``-over-``Scan`` becomes a zone-filter-carrying ``PrunedScan`` and
   PK-build hash joins become ``IndexJoin`` over the catalog's load-time key
   indices.

Phases 1 and 3 always run.  Phases 1, 3 and 4 are order- and
value-preserving.  The ``join_strategy`` rules (2) preserve the result
multiset but not intermediate row order — which also perturbs float
accumulation order — and run by default under the planner's **order
contract** (:mod:`repro.planner.ordering`): the output is still ordered by
the plan's explicit sort keys, so results are compared
multiset-wise within runs of equal keys and with float tolerance
(:func:`repro.bench.harness.rows_equivalent`).  Pass
``PlannerOptions.exact_order()`` to disable them when bit-for-bit,
order-identical results are required.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..dsl import qplan as Q
from ..storage.access import AccessLayer
from ..storage.derived import PLANS
from .access_rules import IndexJoinSelection, PrunedScanSelection
from .cardinality import CardinalityEstimator
from .pruning import prune_plan
from .reorder import reorder_join_chains
from .rewrite import PlannerContext, apply_rules_fixpoint
from .rules import BuildSideSwap, ConstantFolding, PredicatePushdown, TopKFusion


@dataclass(frozen=True)
class PlannerOptions:
    """Which of the optional rule phases the planner runs.

    The logical rule sweep and field pruning always run.  Every optional
    phase is on by default, including the cost-based ``join_strategy`` pair
    (build-side swap, greedy join reordering), which keeps the result
    multiset and the order contract's sort keys but may change tie order and
    float accumulation order.  ``exact_order()`` disables exactly those two
    for callers that need bit-for-bit, order-identical results.
    """

    join_strategy: bool = True
    #: physical access-path selection (PrunedScan, IndexJoin): order- and
    #: value-preserving, so it stays on even under ``exact_order()``
    access_paths: bool = True
    #: re-validate the plan after every individual rule application, naming
    #: the offending rule in a phase-attributed
    #: :class:`~repro.analysis.VerificationError` (the planner half of the
    #: compiler's ``verify`` mode; off by default — it is O(rules × plan))
    validate_rewrites: bool = False

    @classmethod
    def all_rules(cls) -> "PlannerOptions":
        return cls()

    @classmethod
    def exact_order(cls) -> "PlannerOptions":
        """The order- and value-preserving subset (no cost-based join rules)."""
        return cls(join_strategy=False)

    @classmethod
    def no_access_paths(cls) -> "PlannerOptions":
        """Every logical rule, but no physical access-path selection — the
        baseline the access-path benchmarks compare against."""
        return cls(access_paths=False)


@dataclass
class PlanReport:
    """What one optimization run did to a plan."""

    before: str
    after: str
    applied: List[str]
    #: sweeps of the logical rules (the first of the rule phases), the last
    #: one — which found nothing left to rewrite — included
    iterations: int
    reached_fixpoint: bool
    estimated_rows_before: float
    estimated_rows_after: float

    @property
    def changed(self) -> bool:
        return self.before != self.after

    def summary(self) -> str:
        fired = ", ".join(self.applied) if self.applied else "(nothing)"
        return (f"{len(self.applied)} rewrites in {self.iterations} iterations; "
                f"applied: {fired}")


class Planner:
    """Rule-based logical optimizer for QPlan trees against one catalog.

    A directly constructed planner runs the rules on every :meth:`optimize`.
    :meth:`for_catalog` gives one whose results live in the catalog's
    :class:`~repro.storage.derived.DerivedCache`, keyed by the raw plan's
    fingerprint and the rule options: re-optimizing a plan is a lookup, the
    memo is bounded, and a table re-registration empties it — a cached tree
    is never one costed on replaced statistics.
    """

    def __init__(self, catalog, options: Optional[PlannerOptions] = None) -> None:
        self.catalog = catalog
        self.options = options if options is not None else PlannerOptions()
        self._cached = False

    @classmethod
    def for_catalog(cls, catalog,
                    options: Optional[PlannerOptions] = None) -> "Planner":
        """A planner serving ``optimize`` from the catalog's derived cache."""
        planner = cls(catalog, options)
        planner._cached = True
        return planner

    @property
    def estimator(self) -> CardinalityEstimator:
        """An estimator over the catalog's *current* statistics."""
        return CardinalityEstimator(self.catalog)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def optimize(self, plan: Q.Operator) -> Q.Operator:
        """Rewrite a plan; the result is validated before it is returned."""
        if not self._cached:
            return self._run(plan)[0]
        planned, _ = AccessLayer.for_catalog(self.catalog).derived.lookup(
            PLANS, (Q.plan_fingerprint(plan), self.options),
            lambda: self._run(plan)[0])
        return planned

    def explain(self, plan: Q.Operator) -> PlanReport:
        """Optimize and report: before/after trees, applied rules, estimates."""
        before = plan.tree_repr()
        estimator = self.estimator
        rows_before = estimator.estimate_rows(plan)
        optimized, (context, report) = self._run(plan)
        return PlanReport(
            before=before,
            after=optimized.tree_repr(),
            applied=list(context.applied),
            iterations=report.iterations,
            reached_fixpoint=report.reached_fixpoint,
            estimated_rows_before=rows_before,
            estimated_rows_after=estimator.estimate_rows(optimized),
        )

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _run(self, plan: Q.Operator):
        # Reject malformed input outright: pushdown substitution could
        # otherwise rewrite an invalid plan into a valid-but-different one.
        Q.validate(plan, self.catalog)
        context = PlannerContext(catalog=self.catalog, options=self.options)
        plan, report = apply_rules_fixpoint(
            plan, [ConstantFolding(), PredicatePushdown(), TopKFusion()], context)
        if self.options.join_strategy:
            estimator = self.estimator
            plan = reorder_join_chains(plan, context, estimator)
            plan, swap_report = apply_rules_fixpoint(
                plan, [BuildSideSwap(estimator)], context)
            report.applied.extend(swap_report.applied)
        pruned = prune_plan(plan, self.catalog, prune_projections=True,
                            prune_aggregates=True)
        if pruned is not plan:
            context.record("field-pruning")
            plan = pruned
        if self.options.access_paths:
            # Physical access-path selection runs last, on the settled logical
            # shape: filters that pushdown parked on scans become PrunedScans,
            # PK-build hash joins become IndexJoins.  Both rewrites preserve
            # order and values exactly.
            plan, access_report = apply_rules_fixpoint(
                plan,
                [PrunedScanSelection(), IndexJoinSelection()], context)
            report.applied.extend(access_report.applied)
        # An optimizer bug must surface here, not as a wrong answer later.
        Q.validate(plan, self.catalog)
        return plan, (context, report)


def optimize_plan(plan: Q.Operator, catalog,
                  options: Optional[PlannerOptions] = None) -> Q.Operator:
    """Convenience wrapper: optimize one plan with a fresh planner."""
    return Planner(catalog, options).optimize(plan)
