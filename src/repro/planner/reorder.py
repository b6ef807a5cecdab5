"""Statistics-driven greedy reordering of inner hash-join chains.

TPC-H plans are left-deep chains of inner hash joins: each join builds on the
accumulated intermediate result and probes with a new base input.  Given data
statistics, the classic greedy heuristic (start from the smallest relation,
repeatedly join the connected input that minimizes the estimated intermediate
size — the practical cousin of the join-width bounds literature) often beats
the hand-written order.

The pass is deliberately conservative: a chain is only reordered when every
join key and every residual conjunct is a clean *binary equi edge* between
two specific chain inputs (unsided column references, each side's columns
within a single input).  Cross joins (literal keys), sided references,
non-equi residuals or multi-input conjuncts make the chain ineligible and it
is left exactly as written.  Like the build-side swap, reordering preserves
the result multiset but not intermediate row order; it runs by default under
the planner's order contract and is disabled by
``PlannerOptions.exact_order()`` (``join_strategy=False``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dsl import expr as E
from ..dsl import qplan as Q
from ..dsl.expr import split_conjuncts
from .cardinality import CardinalityEstimator
from .exprs import conjoin
from .rewrite import PlannerContext


@dataclass
class _Edge:
    """An equi-join condition between two chain inputs: ``a_expr == b_expr``
    with ``a_expr`` over input ``a`` and ``b_expr`` over input ``b``."""

    a: int
    b: int
    a_expr: E.Expr
    b_expr: E.Expr

    def connects(self, placed: set) -> Optional[Tuple[int, int]]:
        """``(placed_input, new_input)`` when exactly one endpoint is placed."""
        if self.a in placed and self.b not in placed:
            return self.a, self.b
        if self.b in placed and self.a not in placed:
            return self.b, self.a
        return None

    def oriented(self, placed_input: int) -> Tuple[E.Expr, E.Expr]:
        """``(placed_expr, new_expr)`` with the placed side first."""
        if placed_input == self.a:
            return self.a_expr, self.b_expr
        return self.b_expr, self.a_expr


def reorder_join_chains(plan: Q.Operator, context: PlannerContext,
                        estimator: CardinalityEstimator) -> Q.Operator:
    """One top-down pass reordering every eligible maximal join chain."""
    if _is_inner_hash_join(plan) and _is_inner_hash_join(plan.left):
        joins, leaves = _collect_chain(plan)
        new_leaves = [reorder_join_chains(leaf, context, estimator)
                      for leaf in leaves]
        reordered = _greedy_reorder(joins, new_leaves, context, estimator)
        if reordered is not None:
            context.record("join-reorder")
            return reordered
        if all(new is old for new, old in zip(new_leaves, leaves)):
            return plan
        return _rebuild_chain(joins, new_leaves)
    children = plan.children()
    if not children:
        return plan
    new_children = [reorder_join_chains(child, context, estimator)
                    for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return plan
    return plan.with_children(new_children)


def _is_inner_hash_join(node: Q.Operator) -> bool:
    return isinstance(node, Q.HashJoin) and node.kind == "inner"


def _collect_chain(root: Q.HashJoin) -> Tuple[List[Q.HashJoin], List[Q.Operator]]:
    """Flatten the left spine: joins bottom-up, leaves in join order."""
    spine: List[Q.HashJoin] = []
    current: Q.Operator = root
    while _is_inner_hash_join(current):
        spine.append(current)
        current = current.left
    joins = list(reversed(spine))  # bottom-up
    leaves = [current] + [join.right for join in joins]
    return joins, leaves


def _rebuild_chain(joins: List[Q.HashJoin],
                   leaves: List[Q.Operator]) -> Q.Operator:
    """Reassemble the original chain structure over (possibly new) leaves."""
    accumulated = leaves[0]
    for index, join in enumerate(joins):
        accumulated = Q.HashJoin(accumulated, leaves[index + 1], join.left_key,
                                 join.right_key, join.kind, join.residual)
    return accumulated


def _greedy_reorder(joins: List[Q.HashJoin], leaves: List[Q.Operator],
                    context: PlannerContext,
                    estimator: CardinalityEstimator) -> Optional[Q.Operator]:
    edges = _extract_edges(joins, leaves, context)
    if edges is None:
        return None

    sizes = [estimator.estimate_rows(leaf) for leaf in leaves]
    order = _greedy_order(edges, sizes, estimator)
    if order is None or order == list(range(len(leaves))):
        return None

    # Rebuild a left-deep chain following the greedy order: the first edge
    # connecting the new input supplies the key pair, further edges become
    # residual equalities (their columns resolve by membership, the inputs
    # of an inner join never overlap).
    placed = {order[0]}
    accumulated: Q.Operator = leaves[order[0]]
    for leaf_index in order[1:]:
        key_pair: Optional[Tuple[E.Expr, E.Expr]] = None
        residual: List[E.Expr] = []
        for edge in edges:
            link = edge.connects(placed)
            if link is None or link[1] != leaf_index:
                continue
            placed_expr, new_expr = edge.oriented(link[0])
            if key_pair is None:
                key_pair = (placed_expr, new_expr)
            else:
                residual.append(E.BinOp("==", placed_expr, new_expr))
        if key_pair is None:  # unreachable for a connected chain
            return None
        accumulated = Q.HashJoin(accumulated, leaves[leaf_index], key_pair[0],
                                 key_pair[1], "inner", conjoin(residual))
        placed.add(leaf_index)
    return accumulated


def _greedy_order(edges: List[_Edge], sizes: List[float],
                  estimator: CardinalityEstimator) -> Optional[List[int]]:
    """Greedy System-R-style ordering: start small, grow minimally."""
    count = len(sizes)
    start = min(range(count), key=lambda i: (sizes[i], i))
    order, placed = [start], {start}
    current = sizes[start]
    while len(order) < count:
        best: Optional[Tuple[float, int]] = None
        for leaf in range(count):
            if leaf in placed:
                continue
            connecting = [edge for edge in edges
                          if (link := edge.connects(placed)) is not None
                          and link[1] == leaf]
            if not connecting:
                continue
            estimate = current * sizes[leaf]
            for edge in connecting:
                distinct = max(estimator.distinct_of(edge.a_expr) or 1,
                               estimator.distinct_of(edge.b_expr) or 1)
                estimate /= max(distinct, 1)
            estimate = max(estimate, 1.0)
            if best is None or estimate < best[0]:
                best = (estimate, leaf)
        if best is None:
            return None  # join graph is disconnected; leave the chain alone
        current = best[0]
        order.append(best[1])
        placed.add(best[1])
    return order


def _extract_edges(joins: List[Q.HashJoin], leaves: List[Q.Operator],
                   context: PlannerContext) -> Optional[List[_Edge]]:
    """Edges of the join graph, or ``None`` when the chain is ineligible."""
    leaf_fields = [set(context.fields_of(leaf)) for leaf in leaves]
    edges: List[_Edge] = []
    for index, join in enumerate(joins):
        accumulated = list(range(index + 1))
        right_leaf = index + 1
        key_edge = _as_edge(join.left_key, join.right_key, accumulated,
                            [right_leaf], leaf_fields)
        if key_edge is None:
            return None
        edges.append(key_edge)
        if join.residual is None:
            continue
        scope = accumulated + [right_leaf]
        for conjunct in split_conjuncts(join.residual):
            if not isinstance(conjunct, E.BinOp) or conjunct.op != "==":
                return None
            edge = _as_edge(conjunct.left, conjunct.right, scope, scope,
                            leaf_fields)
            if edge is None:
                return None
            edges.append(edge)
    return edges


def _as_edge(a_expr: E.Expr, b_expr: E.Expr, candidates_a: List[int],
             candidates_b: List[int],
             leaf_fields: List[set]) -> Optional[_Edge]:
    """Build an edge from two key expressions, or ``None`` if ineligible."""
    a = _home_leaf(a_expr, candidates_a, leaf_fields)
    b = _home_leaf(b_expr, candidates_b, leaf_fields)
    if a is None or b is None or a == b:
        return None
    return _Edge(a, b, a_expr, b_expr)


def _home_leaf(expr: E.Expr, candidates: List[int],
               leaf_fields: List[set]) -> Optional[int]:
    """The single candidate input providing *all* columns of ``expr``."""
    columns = E.columns_used_with_sides(expr)
    if not columns or any(side is not None for _, side in columns):
        return None
    names = [name for name, _ in columns]
    homes = [leaf for leaf in candidates
             if all(name in leaf_fields[leaf] for name in names)]
    if len(homes) != 1:
        return None
    return homes[0]
