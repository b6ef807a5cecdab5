"""The seeded workload generator.

A workload is a TPC-H scale factor, a client count and an endless,
seed-determined stream of *cycles*.  A cycle is the unit the load generator
repeats, a fixed number of times for a given ``--seconds``, so request and
sample counts repeat exactly and every cycle of a workload holds the same
mix of work.  A cycle is a list of steps: a :class:`Round` (each client
sends its requests one after another, all clients at once) or a
:class:`Reload` (re-register one table with the same data).

The program under test only ever sees what this module generates: query
names registered with the server, or — for ``adhoc_cold`` — fresh plans.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro import dates
from repro.dsl import expr as E
from repro.dsl import qplan as Q
from repro.planner.exprs import rewrite_expr
from repro.tpch import tpch_schema
from repro.tpch.queries import QUERY_NAMES, build_query

DEFAULT_SEED = 20160626

#: what ``--smoke`` runs every workload at
SMOKE_SCALE_FACTOR = 0.001
SMOKE_CACHE_CAPACITY = 128

#: run time ≥ 6 ms at sf 0.01, ≥ 95 % of it in generated loops and
#: ``codegen/runtime.py`` helpers
HEAVY_KINDS = ("Q1", "Q3", "Q5", "Q7", "Q9", "Q13", "Q17", "Q18", "Q20", "Q21")
#: ≤ 7 ms through the server at sf 0.01, so per-request overhead shows.
#: (ISSUE 11 also listed Q4; it measures 62 ms and would have hidden it.)
LIGHT_KINDS = ("Q2", "Q6", "Q11", "Q12", "Q14", "Q15", "Q16", "Q19", "Q22")


@dataclass(frozen=True)
class Request:
    kind: str
    #: a registered query name (``None``) or a plan the server has never seen
    plan: Optional[Q.Operator] = None
    #: whether the response's rows are checked against the reference
    checked: bool = True


@dataclass(frozen=True)
class Round:
    #: one request list per client
    per_client: Tuple[Tuple[Request, ...], ...]


@dataclass(frozen=True)
class Reload:
    table: str


Step = Union[Round, Reload]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale_factor: float
    clients: int
    #: query shapes the workload draws from
    kinds: Tuple[str, ...]
    #: whether the server registers and pre-compiles ``kinds`` at start
    warm: bool
    #: cycles of the timed window per second asked for: the window is a
    #: count of cycles, not a duration, sized to last about ``--seconds`` on
    #: the 2-vCPU sandbox at its usual speed
    cycles_per_second: float
    #: fewest cycles a timed window may hold (p95 needs 200 requests; the
    #: ad-hoc plans must outnumber the compiled-query cache's 512 entries)
    min_cycles: int
    #: cycles of the traced run's span-recording replay
    replay_cycles: int
    _cycles: Callable[["Workload", random.Random], Iterator[List[Step]]]

    def cycles(self, seed: int) -> Iterator[List[Step]]:
        return self._cycles(self, random.Random(seed))

    def timed_cycles(self, seconds: float) -> int:
        return max(self.min_cycles, round(seconds * self.cycles_per_second))

    def plans(self, seed: int) -> List[Tuple[str, Q.Operator]]:
        """One ``(kind, raw plan)`` per distinct shape, for the layer replay:
        the registered plans, or the first plan generated of each shape."""
        if self.warm:
            return [(kind, build_query(kind)) for kind in self.kinds]
        found: Dict[str, Q.Operator] = {}
        for cycle in self.cycles(seed):
            for step in cycle:
                for request in (step.per_client[0] if isinstance(step, Round) else ()):
                    found.setdefault(request.kind, request.plan)
            if len(found) == len(self.kinds):
                return [(kind, found[kind]) for kind in self.kinds]
        raise AssertionError("cycles() is endless")


def _single(kind: str) -> Round:
    return Round(((Request(kind),),))


def _heavy_cycles(workload: Workload, rng: random.Random) -> Iterator[List[Step]]:
    while True:
        yield [_single(kind) for kind in workload.kinds]


#: requests each client sends in a cycle
_LIGHT_CLIENT_REQUESTS = 100


def _light_cycles(workload: Workload, rng: random.Random) -> Iterator[List[Step]]:
    while True:
        yield [Round(tuple(
            tuple(Request(rng.choice(workload.kinds))
                  for _ in range(_LIGHT_CLIENT_REQUESTS))
            for _ in range(workload.clients)))]


#: share of ad-hoc responses whose rows are checked (each check costs one
#: Volcano run of the raw plan after the timed window)
_ADHOC_CHECKED_SHARE = 0.1


def _adhoc_cycles(workload: Workload, rng: random.Random) -> Iterator[List[Step]]:
    shapes = {kind: build_query(kind) for kind in workload.kinds}
    serial = 0
    while True:
        cycle: List[Step] = []
        for kind in workload.kinds:
            serial += 1
            cycle.append(Round(((Request(
                kind, substitute_literals(shapes[kind], rng, serial),
                checked=rng.random() < _ADHOC_CHECKED_SHARE),),)))
        yield cycle


_RELOAD_TABLES = ("lineitem", "orders")
_SWEEPS_PER_RELOAD = 3


def _reload_cycles(workload: Workload, rng: random.Random) -> Iterator[List[Step]]:
    reloads = 0
    while True:
        cycle: List[Step] = [_single(kind) for _ in range(_SWEEPS_PER_RELOAD)
                             for kind in workload.kinds]
        cycle.append(Reload(_RELOAD_TABLES[reloads % len(_RELOAD_TABLES)]))
        reloads += 1
        yield cycle


# ---------------------------------------------------------------------------
# Ad-hoc plans: literal substitution
# ---------------------------------------------------------------------------
_FIRST_DATE, _LAST_DATE = 19920101, 19981231
_DATE_SHIFT_DAYS = 30
_FLOAT_JITTER = 0.05


def substitute_literals(plan: Q.Operator, rng: random.Random,
                        serial: int) -> Q.Operator:
    """A copy of ``plan`` no cache has seen.

    Date literals in ``Select`` predicates and ``having`` clauses all move
    by one offset of up to ±30 days (so a date window keeps its width and
    stays populated — Q14 divides by its window's revenue) and float
    literals by up to ±5 % each, equal literals staying equal so shared
    subplans stay shared.  Eight of the 22 shapes have no
    such literal, so one scan filter of every plan also gains the conjunct
    ``<first key column> >= -serial`` — true for every row (keys are
    positive), different for every plan, and not foldable without looking
    at the data — which makes the fingerprint unique after planning too.
    """
    substituted: Dict[object, object] = {}
    days = rng.randint(-_DATE_SHIFT_DAYS, _DATE_SHIFT_DAYS)

    def shift(node: E.Expr) -> Optional[E.Expr]:
        if not isinstance(node, E.Lit) or isinstance(node.value, bool):
            return None
        value = node.value
        if value not in substituted:
            if isinstance(value, int) and _FIRST_DATE <= value <= _LAST_DATE:
                substituted[value] = dates.add_days(value, days)
            elif isinstance(value, float):
                substituted[value] = value * (
                    1.0 + rng.uniform(-_FLOAT_JITTER, _FLOAT_JITTER))
            else:
                return None
        return E.Lit(substituted[value])

    nodes = list(Q.walk(plan))
    guarded = next(
        (node for node in nodes
         if isinstance(node, Q.Select) and isinstance(node.child, Q.Scan)),
        None) or next(node for node in nodes if isinstance(node, Q.Scan))
    scan = guarded if isinstance(guarded, Q.Scan) else guarded.child
    guard = E.col(tpch_schema().table(scan.table).columns[0].name) >= -serial

    def rebuild(node: Q.Operator) -> Q.Operator:
        rebuilt = node.with_children([rebuild(child) for child in node.children()])
        if isinstance(rebuilt, Q.Select):
            rebuilt = replace(
                rebuilt, predicate=rewrite_expr(rebuilt.predicate, shift))
        elif isinstance(rebuilt, Q.Agg) and rebuilt.having is not None:
            rebuilt = replace(rebuilt, having=rewrite_expr(rebuilt.having, shift))
        if node is guarded:
            rebuilt = replace(rebuilt, predicate=rebuilt.predicate & guard) \
                if isinstance(rebuilt, Q.Select) else Q.Select(rebuilt, guard)
        return rebuilt

    return rebuild(plan)


# ---------------------------------------------------------------------------
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "heavy_warm",
        "ten long warm queries, one client: >= 95 % of a request is generated "
        "loops and codegen/runtime.py helpers, so execution-kernel work shows here",
        scale_factor=0.01, clients=1, kinds=HEAVY_KINDS, warm=True,
        cycles_per_second=2.6, min_cycles=20, replay_cycles=4,
        _cycles=_heavy_cycles),
    Workload(
        "light_warm",
        "nine short warm queries, two clients: admission, thread hop, planner "
        "memo, cache lookup, prepare and ladder bookkeeping are most of a request",
        scale_factor=0.01, clients=2, kinds=LIGHT_KINDS, warm=True,
        cycles_per_second=1.2, min_cycles=1, replay_cycles=4,
        _cycles=_light_cycles),
    Workload(
        "adhoc_cold",
        "never-repeated plans of all 22 shapes: every request plans, compiles "
        "through the whole stack, prepares and runs once; the LRU overflows",
        scale_factor=0.002, clients=1, kinds=tuple(QUERY_NAMES), warm=False,
        cycles_per_second=3.0, min_cycles=24, replay_cycles=4,
        _cycles=_adhoc_cycles),
    Workload(
        "reload_mix",
        "all 22 queries with a table re-registered every third sweep: p50 sits "
        "on the warm path, p95 on invalidation and rebuild of every cache",
        scale_factor=0.01, clients=1, kinds=tuple(QUERY_NAMES), warm=True,
        cycles_per_second=0.5, min_cycles=4, replay_cycles=1,
        _cycles=_reload_cycles),
)}


def smoke(workload: Workload) -> Workload:
    """Everything small.  ``run.py --smoke`` also shrinks the compiled-query
    cache to :data:`SMOKE_CACHE_CAPACITY`, so ten cycles of never-repeated
    plans (220, enough for p95) still overflow it."""
    return replace(workload, scale_factor=SMOKE_SCALE_FACTOR,
                   min_cycles=workload.min_cycles if workload.warm else 10)

