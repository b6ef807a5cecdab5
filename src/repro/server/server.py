"""The asyncio query-serving front door.

:class:`QueryServer` accepts concurrent query submissions, runs them through
the PR-6 :class:`~repro.robustness.fallback.HardenedExecutor` on a thread
pool, and refuses to melt down when demand exceeds capacity:

* **Admission control** — a bounded FIFO queue
  (:class:`~repro.server.admission.AdmissionController`) in front of a
  fixed window of ``max_concurrency`` executing requests.  Requests beyond
  the queue bound get a typed ``overloaded`` response immediately; nothing
  queues without bound.
* **Deadline propagation** — each request carries an absolute deadline.
  Whatever deadline is left when execution starts becomes the
  :class:`~repro.robustness.governor.QueryBudget` timeout handed to the
  governor, so a query admitted late runs with a tighter budget, and
  requests whose deadline expired in the queue are dropped (typed
  ``deadline_exceeded``, never executed).
* **One ladder** — every admitted request runs on the executor's
  fallback ladder, whatever the queue occupancy; pressure is answered by
  the queue bound alone, and every rejection is recorded in the incident
  log.
* **Lifecycle** — :meth:`health` / :meth:`readiness` probes, a warm-up that
  pre-builds the catalog's access structures and pre-compiles a configured
  query set, and a draining shutdown (:meth:`drain`) that completes every
  admitted query, rejects new ones, and leaves zero orphaned futures.

Execution runs on a thread pool: compiled code and engines hit governor
checkpoints (GIL yield points) per row/operator, and the executor, incident
log, circuit breaker and compiled-query cache are all thread-safe.  The
``server.*`` fault sites (queue stalls, slow executors, deadline skew) let
the overload chaos suite drive this machinery through injected storms.
"""
from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Mapping, Optional, Sequence

from ..dsl import qplan as Q
from ..robustness.fallback import HardenedExecutor, LadderExhausted
from ..robustness.faults import fault_value
from ..robustness.governor import BudgetExceeded, QueryBudget
from ..robustness.incidents import IncidentLog
from ..storage.access import AccessLayer
from ..storage.catalog import Catalog
from ..storage.derived import COMPILED
from ..storage.loader import warm_access_paths
from .admission import AdmissionController, AdmittedRequest
from .responses import (STATUS_FAILED, STATUS_OK, DeadlineExceeded,
                        Overloaded, QueryResponse, Rejection)

#: lifecycle states, in order
STATES = ("new", "starting", "serving", "draining", "stopped")


class QueryServer:
    """Admission-controlled asyncio front door over one catalog.

    Construct, ``await start()``, ``await submit(...)`` from any number of
    concurrent tasks, ``await drain()`` to shut down.  Every submission
    resolves to exactly one :class:`QueryResponse`.
    """

    def __init__(self, catalog: Catalog, *,
                 executor: Optional[HardenedExecutor] = None,
                 queries: Optional[Mapping[str, Q.Operator]] = None,
                 warmup: Sequence[str] = (),
                 max_queue_depth: int = 64,
                 max_concurrency: int = 32,
                 default_timeout_seconds: Optional[float] = None,
                 base_budget: Optional[QueryBudget] = None) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.catalog = catalog
        self.executor = executor if executor is not None else \
            HardenedExecutor(catalog, incidents=IncidentLog())
        self.incidents = self.executor.incidents
        self.queries: Dict[str, Q.Operator] = dict(queries or {})
        unknown = [name for name in warmup if name not in self.queries]
        if unknown:
            raise ValueError(f"warmup names not in the query registry: {unknown}")
        self.warmup_names = tuple(warmup)
        self.default_timeout_seconds = default_timeout_seconds
        self.base_budget = base_budget if base_budget is not None \
            else QueryBudget.unlimited()
        self._clock = time.monotonic
        # concurrency: synchronized
        self._admission = AdmissionController(max_queue_depth, clock=self._clock)
        #: at most this many requests execute at once; it also sizes the pool
        self.max_concurrency = max_concurrency
        # concurrency: confined(event-loop): lifecycle transitions happen on the loop
        self._state = "new"
        # concurrency: confined(event-loop): bound once by start(), on the loop
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # concurrency: confined(event-loop): bound once by start(), on the loop
        self._pool: Optional[ThreadPoolExecutor] = None
        # concurrency: confined(event-loop): bound once by start(), on the loop
        self._dispatcher: Optional[asyncio.Task] = None
        # concurrency: confined(event-loop): bound once by start(), on the loop
        self._wake: Optional[asyncio.Event] = None
        # concurrency: confined(event-loop): bound once by start(), on the loop
        self._idle: Optional[asyncio.Event] = None
        # concurrency: confined(event-loop): counters touched only by loop tasks
        self._in_flight = 0
        # concurrency: confined(event-loop): counters touched only by loop tasks
        self._pending = 0
        # concurrency: confined(event-loop): written once by start()
        self._started_at: Optional[float] = None
        # concurrency: confined(event-loop): _count runs on the loop; sync reads are snapshots
        self._responses_by_status: Dict[str, int] = {}
        # concurrency: confined(startup): filled by _warm_up before serving starts
        self._warmup_report: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    async def start(self) -> None:
        """Warm up and begin serving.  Idempotent only from ``new``."""
        if self._state != "new":
            raise RuntimeError(f"cannot start from state {self._state!r}")
        self._state = "starting"
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="repro-serving")
        await self._loop.run_in_executor(self._pool, self._warm_up)
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        self._started_at = self._clock()
        self._state = "serving"

    # concurrency: runs-on(startup)
    def _warm_up(self) -> None:
        """Pre-build access structures, pre-compile the configured set."""
        warm_access_paths(self.catalog)
        for name in self.warmup_names:
            self._warmup_report[name] = self.executor.warm(
                self.queries[name], name)

    async def drain(self, timeout_seconds: Optional[float] = None) -> None:
        """Stop admitting, finish every admitted query, then shut down.

        With a ``timeout_seconds`` bound, requests still *queued* when it
        expires are resolved as typed ``overloaded`` responses (reason
        ``"shutdown"``); in-flight executions are always awaited — the
        governor's deadline budget bounds how long that can take.  After
        ``drain`` returns no future is left unresolved.
        """
        if self._state == "stopped":
            return
        if self._state == "new":
            self._state = "stopped"
            return
        wake, idle = self._wake, self._idle
        assert wake is not None and idle is not None
        self._state = "draining"
        self._admission.stop_accepting("draining")
        wake.set()
        try:
            if timeout_seconds is None:
                await idle.wait()
            else:
                try:
                    await asyncio.wait_for(idle.wait(), timeout_seconds)
                except asyncio.TimeoutError:
                    pass
        finally:
            if self._dispatcher is not None:
                self._dispatcher.cancel()
                try:
                    await self._dispatcher
                except asyncio.CancelledError:
                    pass
            # a timed-out drain may leave queued (never-dispatched) requests:
            # resolve each with a typed rejection — no orphaned futures
            for request in self._admission.drain_queue():
                self.incidents.report(
                    "admission_reject", query=request.name,
                    cause="shutdown",
                    message=f"{request.name}: dropped at shutdown")
                self._resolve(request, QueryResponse(
                    query=request.name, status=Overloaded.status,
                    reason="shutdown", error_type="Overloaded",
                    message="server shut down before dispatch"))
            # in-flight work still resolves its futures on the loop; wait
            # for the pool without blocking the event loop thread
            pool, loop = self._pool, self._loop
            assert pool is not None and loop is not None
            await loop.run_in_executor(
                None, lambda: pool.shutdown(wait=True))
            while self._in_flight > 0:
                await asyncio.sleep(0.001)
            self._state = "stopped"

    def health(self) -> dict:
        """Liveness: the process is up; reports state and uptime."""
        uptime = 0.0 if self._started_at is None \
            else self._clock() - self._started_at
        return {"status": "ok", "state": self._state,
                "uptime_seconds": uptime}

    def readiness(self) -> dict:
        """Readiness: whether new requests will be admitted right now."""
        ready = self._state == "serving"
        reason = "" if ready else f"state is {self._state!r}"
        return {"ready": ready, "state": self._state, "reason": reason,
                "warmed_queries": len(self._warmup_report)}

    def stats(self) -> dict:
        """The stats endpoint: queue, window, incident counters (via
        :meth:`IncidentLog.snapshot` — the ring is not drained)."""
        return {
            "state": self._state,
            "in_flight": self._in_flight,
            "pending": self._pending,
            "queue": self._admission.snapshot(),
            "limiter": {"limit": self.max_concurrency},
            "responses_by_status": dict(self._responses_by_status),
            "warm_plans": AccessLayer.for_catalog(self.catalog).derived.entry_count(
                COMPILED),
            "warmup_compile_seconds": dict(self._warmup_report),
            "incidents": self.incidents.snapshot(),
        }

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, plan, query_name: Optional[str] = None, *,
                     timeout_seconds: Optional[float] = None) -> QueryResponse:
        """Submit one query; resolves to exactly one typed response.

        ``plan`` is a QPlan operator tree, or the name of a registered query
        (the ``queries`` mapping given at construction).  ``timeout_seconds``
        (default: the server's ``default_timeout_seconds``) becomes the
        request deadline; requests dispatch in arrival order.
        """
        if isinstance(plan, str):
            query_name = plan if query_name is None else query_name
            try:
                plan = self.queries[plan]
            except KeyError:
                return self._count(QueryResponse(
                    query=query_name, status=STATUS_FAILED,
                    reason="unknown_query", error_type="KeyError",
                    message=f"no registered query named {query_name!r}"))
        name = query_name if query_name is not None else "query"
        if self._state != "serving":
            self.incidents.report(
                "admission_reject", query=name, cause="not_serving",
                message=f"{name}: rejected in state {self._state!r}")
            return self._count(QueryResponse(
                query=name, status=Overloaded.status, reason="not_serving",
                error_type="Overloaded",
                message=f"server is {self._state}, not serving"))
        timeout = timeout_seconds if timeout_seconds is not None \
            else self.default_timeout_seconds
        deadline = None if timeout is None else self._clock() + timeout
        try:
            request = self._admission.offer(name, plan, deadline=deadline)
        except Rejection as error:
            category = "deadline_expired" \
                if isinstance(error, DeadlineExceeded) else "admission_reject"
            self.incidents.report(
                category, query=name, cause=error.reason, message=str(error),
                queue_depth=len(self._admission))
            return self._count(QueryResponse(
                query=name, status=error.status, reason=error.reason,
                error_type=type(error).__name__, message=str(error)))
        # submit() and the dispatcher both run on the event loop, so the
        # future is attached before the request can possibly be popped
        loop, wake, idle = self._loop, self._wake, self._idle
        assert loop is not None and wake is not None and idle is not None
        request.future = loop.create_future()
        self._pending += 1
        idle.clear()
        wake.set()
        return await request.future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        wake, loop = self._wake, self._loop
        assert wake is not None and loop is not None
        while True:
            await wake.wait()
            wake.clear()
            while self._in_flight < self.max_concurrency:
                request = self._admission.pop()
                if request is None:
                    break
                # injected queue stall: the dispatcher wedges while queued
                # deadlines keep burning
                stall = fault_value("server.queue_stall", 0.0)
                if stall:
                    await asyncio.sleep(stall)
                if request.expired(self._clock()):
                    self.incidents.report(
                        "deadline_expired", query=request.name,
                        cause="expired_in_queue",
                        message=(f"{request.name}: deadline expired after "
                                 "admission, dropped before execution"),
                        queue_seconds=self._clock() - request.enqueued_at)
                    self._resolve(request, QueryResponse(
                        query=request.name,
                        status=DeadlineExceeded.status,
                        reason="expired_in_queue",
                        error_type="DeadlineExceeded",
                        message="deadline expired while queued",
                        queue_seconds=self._clock() - request.enqueued_at))
                    continue
                self._in_flight += 1
                loop.create_task(self._run_request(request))

    async def _run_request(self, request: AdmittedRequest) -> None:
        queue_seconds = self._clock() - request.enqueued_at
        loop, pool = self._loop, self._pool
        assert loop is not None and pool is not None
        try:
            response = await loop.run_in_executor(
                pool, self._execute, request, queue_seconds)
        except Exception as error:  # noqa: BLE001 - never orphan a future
            response = QueryResponse(
                query=request.name, status=STATUS_FAILED,
                reason="internal_error", error_type=type(error).__name__,
                message=str(error), queue_seconds=queue_seconds)
        finally:
            self._in_flight -= 1
            if self._wake is not None:
                self._wake.set()
        self._resolve(request, response)

    # concurrency: runs-on(event-loop)
    def _resolve(self, request: AdmittedRequest, response: QueryResponse) -> None:
        self._count(response)
        if request.future is not None and not request.future.done():
            request.future.set_result(response)
        self._pending -= 1
        if self._pending <= 0 and self._idle is not None:
            self._idle.set()

    # concurrency: runs-on(event-loop)
    def _count(self, response: QueryResponse) -> QueryResponse:
        self._responses_by_status[response.status] = \
            self._responses_by_status.get(response.status, 0) + 1
        return response

    # ------------------------------------------------------------------
    # Execution (worker threads)
    # ------------------------------------------------------------------
    def _execute(self, request: AdmittedRequest,
                 queue_seconds: float) -> QueryResponse:
        # injected slow executor: the worker holds its admission slot
        extra = fault_value("server.executor_slow", 0.0)
        if extra:
            time.sleep(extra)
        remaining = request.remaining(self._clock())
        if remaining is not None:
            # injected deadline skew: the translated budget is tighter than
            # the real remaining deadline (a conservatively-skewed clock)
            remaining -= fault_value("server.deadline_skew", 0.0)
            if remaining <= 0.0:
                self.incidents.report(
                    "deadline_expired", query=request.name,
                    cause="expired_before_execute",
                    message=(f"{request.name}: {remaining:.4f}s of deadline "
                             "left at execution, dropped"),
                    queue_seconds=queue_seconds)
                return QueryResponse(
                    query=request.name, status=DeadlineExceeded.status,
                    reason="expired_before_execute",
                    error_type="DeadlineExceeded",
                    message="deadline expired before execution started",
                    queue_seconds=queue_seconds)
        budget = self._budget_for(remaining)
        started = time.perf_counter()
        try:
            report = self.executor.execute(request.plan, request.name,
                                           budget=budget)
        except BudgetExceeded as error:
            # the propagated deadline tripped mid-execution; the executor
            # already recorded the budget_trip incident
            return QueryResponse(
                query=request.name, status=DeadlineExceeded.status,
                reason="budget_timeout", error_type="BudgetExceeded",
                message=str(error), queue_seconds=queue_seconds,
                execute_seconds=time.perf_counter() - started,
                detail={"stats": error.stats.as_dict()})
        except LadderExhausted as error:
            return QueryResponse(
                query=request.name, status=STATUS_FAILED,
                reason="ladder_exhausted", error_type="LadderExhausted",
                message=str(error), queue_seconds=queue_seconds,
                execute_seconds=time.perf_counter() - started,
                detail={"attempts": list(error.attempts)})
        except Exception as error:  # noqa: BLE001 - typed response, not a raise
            return QueryResponse(
                query=request.name, status=STATUS_FAILED,
                reason="internal_error", error_type=type(error).__name__,
                message=str(error), queue_seconds=queue_seconds,
                execute_seconds=time.perf_counter() - started)
        elapsed = time.perf_counter() - started
        return QueryResponse(
            query=request.name, status=STATUS_OK, rows=report.rows,
            tier=report.tier, plan_mode=report.plan_mode,
            attempts=len(report.attempts),
            queue_seconds=queue_seconds, execute_seconds=elapsed)

    def _budget_for(self, remaining: Optional[float]) -> Optional[QueryBudget]:
        """Translate the remaining deadline into the governor budget: none
        when there is no deadline to enforce, whatever the check interval."""
        base = self.base_budget
        if remaining is None:
            return None if base.timeout_seconds is None else base
        remaining = max(0.0, remaining)
        timeout = remaining if base.timeout_seconds is None \
            else min(base.timeout_seconds, remaining)
        return replace(base, timeout_seconds=timeout)

