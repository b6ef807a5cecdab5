"""Rewrite-rule framework for QPlan operator trees.

The planner applies *plan rewrite rules* over
:class:`~repro.dsl.qplan.Operator` trees until a fixed point — found by the
same driver the DSL stack runs its optimizations through
(:func:`repro.stack.transformation.apply_fixpoint`): a sweep of the rules
over the tree is one QPlan optimization, and a sweep in which no rule fired
returns the tree it was given.

Rules are node-local: :meth:`PlanRule.apply` looks at one operator (and its
children, which it may restructure) and returns a rewritten operator or
``None`` for "no change".  The driver walks the tree top-down so that a
predicate pushed one level down is immediately reconsidered at its new
position, letting a single sweep sink a filter through a whole join pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..dsl import qplan as Q
from ..stack.language import QPLAN
from ..stack.transformation import FunctionOptimization, apply_fixpoint


class PlannerError(Exception):
    """A plan rewrite was mis-declared or produced an invalid plan."""


@dataclass
class PlannerContext:
    """State shared by the rules of one optimization run.

    Attributes:
        catalog: the schema catalog; rules use it to resolve scan columns.
        options: the active :class:`~repro.planner.planner.PlannerOptions`.
        applied: names of the rule applications that changed the plan, in
            order — the raw material for :meth:`Planner.explain`.
        field_memo: per-pass ``output_fields`` memo (cleared whenever the
            tree changes shape, because it is keyed by node identity).
    """

    catalog: object
    options: object = None
    applied: List[str] = field(default_factory=list)
    field_memo: Dict[int, List[str]] = field(default_factory=dict)

    def fields_of(self, node: Q.Operator) -> List[str]:
        return Q.output_fields(node, self.catalog, self.field_memo)

    def record(self, rule_name: str) -> None:
        self.applied.append(rule_name)

    def statistics(self):
        return getattr(self.catalog, "statistics", None)


class PlanRule:
    """Base class of node-local plan rewrite rules."""

    name: str = "plan-rule"

    def apply(self, node: Q.Operator, context: PlannerContext) -> Optional[Q.Operator]:
        """Rewrite ``node`` or return ``None`` when the rule does not apply."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<plan-rule {self.name}>"


#: bound on repeated rule applications at a single node within one sweep;
#: rules make strictly-decreasing progress (merge selects, sink conjuncts),
#: so a rule that *still* fires beyond this is buggy, not a deep plan.
_MAX_LOCAL_APPLICATIONS = 1000


def _validate_rewrite(plan: Q.Operator, rule: PlanRule,
                      context: PlannerContext) -> None:
    """Re-validate a plan right after one rule application.

    Enabled by ``PlannerOptions.validate_rewrites``: instead of learning at
    the end of the run that *some* rule broke the plan, the offending rule is
    named in a phase-attributed verification error the moment it fires.
    """
    try:
        Q.validate(plan, context.catalog)
    except Exception as exc:
        from ..analysis import VerificationError
        raise VerificationError(
            f"plan rewrite produced an invalid plan: {exc}",
            check="plan", phase=rule.name) from exc


def rewrite_sweep(plan: Q.Operator, rules: Sequence[PlanRule],
                  context: PlannerContext) -> Q.Operator:
    """One top-down sweep: apply every rule at every node (parents first)."""
    validate_each = bool(getattr(context.options, "validate_rewrites", False))
    for rule in rules:
        for _ in range(_MAX_LOCAL_APPLICATIONS):
            rewritten = rule.apply(plan, context)
            if rewritten is None:
                break
            context.record(rule.name)
            context.field_memo.clear()
            plan = rewritten
            if validate_each:
                _validate_rewrite(plan, rule, context)
        else:
            # only a rule that keeps firing past the bound is runaway; a
            # legal plan that needed exactly the bound has reached None here
            if rule.apply(plan, context) is not None:
                raise PlannerError(
                    f"rule {rule.name!r} kept firing at {plan.describe()}; "
                    "a rewrite rule must reach a local fixed point")

    children = plan.children()
    if not children:
        return plan
    new_children = [rewrite_sweep(child, rules, context) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return plan
    context.field_memo.clear()
    return plan.with_children(new_children)


def apply_rules_fixpoint(plan: Q.Operator, rules: Sequence[PlanRule],
                         context: PlannerContext) -> tuple:
    """Sweep ``rules`` over the plan until it stops changing.

    Returns ``(plan, report)``: :func:`rewrite_sweep` is handed to the
    stack's fixpoint driver as its single step.  The sweep declares no
    ``enables`` — any rule may give any rule work — so a sweep that rewrote
    something re-queues itself: ``report.iterations`` counts the sweeps run,
    the last one (which found nothing) included, and hitting the bound is
    reported (``reached_fixpoint=False``) rather than raised.
    ``report.applied`` names the rule applications, not the sweeps.
    """
    fired = len(context.applied)
    sweep = FunctionOptimization(
        QPLAN, "rewrite-sweep", lambda tree, ctx: rewrite_sweep(tree, rules, ctx))
    plan, report = apply_fixpoint([sweep] if rules else [], plan, context)
    report.applied = context.applied[fired:]
    return plan, report
