"""The closed-loop load generator, the correctness gate and the set-up.

Every timed request is ``await QueryServer.submit(...)`` on a
default-constructed server, in this process.  The loop is closed: a client
sends its next query only when it holds the rows of the last one, which is
how an analytics client behaves and is also the only honest choice while
the serving curve is flat (ROADMAP: 35 -> 31 qps from 1 to 8 offered
clients) — an open-loop rate search is deferred until a change bends it.
"""
from __future__ import annotations

import asyncio
import gc
import statistics
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bench.harness import rows_equivalent
from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.engine.volcano import VolcanoEngine
from repro.planner import sort_contract
from repro.server import STATUS_OK, QueryServer
from repro.storage.catalog import Catalog
from repro.storage.loader import warm_access_paths
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import build_query

from measure import percentile
from workloads import Reload, Request, Step, Workload


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
@dataclass
class SetUp:
    catalog: Catalog
    server: QueryServer
    #: ``perf_counter`` readings ``(start, end)`` per stage: ``dbgen``,
    #: ``access``, ``start``, in that order
    stages: Dict[str, Tuple[float, float]]

    def stage_seconds(self, name: str) -> float:
        start, end = self.stages[name]
        return end - start

    @property
    def seconds(self) -> float:
        return sum(self.stage_seconds(name) for name in self.stages)


async def set_up(workload: Workload, seed: int) -> SetUp:
    """Everything before the first request: generate the data, build the
    access paths, start the server (which pre-compiles a warm workload's
    queries).  Starts from an empty compiled-query cache."""
    QueryCompiler.clear_cache()
    marks = [time.perf_counter()]
    catalog = generate_catalog(workload.scale_factor, seed)
    marks.append(time.perf_counter())
    warm_access_paths(catalog)
    marks.append(time.perf_counter())
    queries = {kind: build_query(kind) for kind in workload.kinds} \
        if workload.warm else {}
    server = QueryServer(catalog, queries=queries, warmup=tuple(queries))
    await server.start()
    marks.append(time.perf_counter())
    return SetUp(catalog, server, dict(zip(
        ("dbgen", "access", "start"), zip(marks, marks[1:]))))


# ---------------------------------------------------------------------------
# The correctness gate
# ---------------------------------------------------------------------------
class Checker:
    """Row-sets against an independent reference.

    The reference is the Volcano interpreter on the *raw* plan — planner off,
    no generated code involved — so the compiler under test never grades
    itself.  Comparison is ``rows_equivalent`` under the plan's sort
    contract, the same order-contract parity the repo's suites use.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._engine = VolcanoEngine(catalog)
        #: fingerprint -> (reference rows, sort contract)
        self._references: Dict[str, Tuple[list, object]] = {}

    def matches(self, plan: Q.Operator, rows: Optional[Sequence[dict]]) -> bool:
        if rows is None:
            return False
        fingerprint = Q.plan_fingerprint(plan)
        if fingerprint not in self._references:
            self._references[fingerprint] = (
                self._engine.execute(plan), sort_contract(plan))
        expected, contract = self._references[fingerprint]
        return rows_equivalent(expected, rows, sort_keys=contract)


# ---------------------------------------------------------------------------
# The request window
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    """One request as the client saw it."""

    kind: str
    #: ``perf_counter`` readings at submit and at response
    started: float
    ended: float
    status: str
    tier_policy: str
    attempts: int
    queue_seconds: float
    execute_seconds: float

    @property
    def seconds(self) -> float:
        return self.ended - self.started


@dataclass
class RowSet:
    plan: Q.Operator
    rows: Optional[list]
    responses: int = 1


@dataclass
class Window:
    samples: List[Sample] = field(default_factory=list)
    #: wall seconds, first step to last: rounds plus reloads
    seconds: float = 0.0
    #: the distinct row-sets returned, each with how many responses carried
    #: it — what the checker looks at after the window
    row_sets: List[RowSet] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def median_by_kind(self) -> Dict[str, float]:
        """Median latency of each query kind."""
        by_kind: Dict[str, List[float]] = {}
        for sample in self.samples:
            by_kind.setdefault(sample.kind, []).append(sample.seconds)
        return {kind: statistics.median(values)
                for kind, values in sorted(by_kind.items())}


async def run_window(setup: SetUp, cycles: Iterable[List[Step]],
                     on_sample: Optional[Callable[[Sample], None]] = None) -> Window:
    """Send every cycle of ``cycles`` through the server; ``on_sample`` (the
    traced run's span recorder) sees each request as its response arrives.

    Rows are not checked here, only de-duplicated: a registered query
    returns the same rows every time, so the window keeps one
    :class:`RowSet` per distinct answer and :func:`failed_operations`
    checks those."""
    server, catalog = setup.server, setup.catalog
    window = Window()
    by_kind: Dict[str, List[RowSet]] = {}

    async def client(requests: Sequence[Request], into: List[Sample]) -> None:
        for request in requests:
            started = time.perf_counter()
            response = await (server.submit(request.kind) if request.plan is None
                              else server.submit(request.plan, request.kind))
            into.append(Sample(
                request.kind, started, time.perf_counter(), response.status,
                response.tier_policy, response.attempts,
                response.queue_seconds, response.execute_seconds))
            if on_sample is not None:
                on_sample(into[-1])
            if not response.ok:
                continue
            if request.plan is not None:
                if request.checked:
                    window.row_sets.append(RowSet(request.plan, response.rows))
                continue
            seen = by_kind.setdefault(request.kind, [])
            for row_set in seen:
                if row_set.rows == response.rows:
                    row_set.responses += 1
                    break
            else:
                seen.append(RowSet(server.queries[request.kind], response.rows))
                window.row_sets.append(seen[-1])

    gc.collect()
    opened = time.perf_counter()
    for cycle in cycles:
        for step in cycle:
            if isinstance(step, Reload):
                catalog.register(catalog.table(step.table))
            else:
                await asyncio.gather(*(client(requests, window.samples)
                                       for requests in step.per_client))
    window.seconds = time.perf_counter() - opened
    return window


async def timed_window(setup: SetUp, workload: Workload, seed: int,
                       seconds: float) -> Tuple[Window, Iterator[List[Step]]]:
    """One untimed pass of the request set (caches fill, lazy set-up
    finishes), then the workload's fixed number of cycles for ``seconds``.
    Also returns the cycle stream, for a caller that replays more of it."""
    cycles = workload.cycles(seed)
    await run_window(setup, islice(cycles, 1))
    window = await run_window(
        setup, islice(cycles, workload.timed_cycles(seconds)))
    if not workload.warm and window.attempted <= QueryCompiler.cache_capacity:
        raise RuntimeError(
            f"{workload.name} sent {window.attempted} never-repeated plans; it "
            f"must overflow the {QueryCompiler.cache_capacity}-entry "
            "compiled-query cache to be the workload it says it is")
    return window, cycles


def failed_operations(window: Window, checker: Checker) -> int:
    """Responses that were not ``ok`` plus responses whose rows fail the
    reference check."""
    return sum(sample.status != STATUS_OK for sample in window.samples) + sum(
        row_set.responses for row_set in window.row_sets
        if not checker.matches(row_set.plan, row_set.rows))


def window_metrics(window: Window, failed: int) -> Dict[str, float]:
    """What a client of the server sees over one window."""
    latencies = [sample.seconds for sample in window.samples]
    return {
        "throughput_qps": (window.attempted - failed) / window.seconds,
        "latency_geomean_ms": 1000.0 * statistics.geometric_mean(
            window.median_by_kind().values()),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p95_ms": 1000.0 * percentile(latencies, 95),
        "failed_share": failed / window.attempted,
    }
