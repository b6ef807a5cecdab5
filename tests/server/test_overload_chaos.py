"""Overload chaos: the front door under injected storms.

This is the serving layer's acceptance suite.  Under seeded fault storms
(engine failures, slow executors, dispatcher stalls, deadline skew) with
ramped concurrency, the invariants checked throughout are:

* every admitted query that answers does so with contract-correct rows
  (multiset parity against the clean Volcano reference under the query's
  order contract, via :func:`repro.bench.harness.rows_equivalent`);
* every shed request yields a *typed* response AND a matching
  incident record — response counts and incident counters reconcile exactly,
  no silent drop;
* no admitted query's end-to-end wall time exceeds its deadline by more than
  the governor's checkpoint slack;
* graceful drain terminates with zero orphaned futures and zero in-flight
  queries.

``CHAOS_SEED`` (environment) feeds the probabilistic storms so CI can sweep
a fixed seed matrix; the default is seed 0.
"""
import asyncio
import itertools
import os
import time

import pytest

from repro.bench.harness import assert_rows_equivalent
from repro.engine.volcano import execute
from repro.planner import sort_contract
from repro.robustness.faults import (DataCorruptionFault, EngineFault,
                                     FaultPlan, FaultSpec, inject)
from repro.robustness.governor import QueryBudget
from repro.server import STATUSES, QueryServer
from repro.tpch.queries import build_query

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
QUERIES = ("Q1", "Q6", "Q12", "Q14")
#: wall-time slack on the deadline invariant: the governor only consults the
#: clock every ``check_interval`` rows, plus generous CI scheduling headroom
DEADLINE_SLACK_SECONDS = 1.0


@pytest.fixture(scope="module")
def reference_results(tpch_catalog):
    return {name: execute(build_query(name), tpch_catalog)
            for name in QUERIES}


@pytest.fixture(scope="module")
def query_registry():
    return {name: build_query(name) for name in QUERIES}


def _check_parity(reference_results, response):
    assert_rows_equivalent(
        reference_results[response.query], response.rows,
        sort_keys=sort_contract(build_query(response.query)),
        context=f"{response.query} on {response.tier}/{response.plan_mode}")


async def _timed_submit(server, name, **kwargs):
    started = time.monotonic()
    response = await server.submit(name, **kwargs)
    return response, time.monotonic() - started


def _reconcile(server, responses):
    """Shed accounting: responses and incidents must agree."""
    overloaded = [r for r in responses if r.status == "overloaded"]
    expired = [r for r in responses if r.status == "deadline_exceeded"
               and r.reason != "budget_timeout"]
    budget_timeouts = [r for r in responses if r.reason == "budget_timeout"]
    incidents = server.incidents
    assert incidents.count("admission_reject") == len(overloaded)
    assert incidents.count("deadline_expired") == len(expired)
    assert incidents.count("budget_trip") >= len(budget_timeouts)
    # shed requests never carry rows; typed reason always present on non-ok
    for response in responses:
        assert response.status in STATUSES
        if response.shed:
            assert response.rows is None
            assert response.reason
    counted = server.stats()["responses_by_status"]
    assert sum(counted.values()) == len(responses)


def _assert_drained(server):
    stats = server.stats()
    assert server.state == "stopped"
    assert stats["in_flight"] == 0
    assert stats["pending"] == 0
    assert stats["queue"]["depth"] == 0


@pytest.mark.timeout(300)
class TestRampedOverloadStorm:
    """The headline scenario: concurrency ramps past the queue bound while a
    probabilistic storm hits engines, workers and the dispatcher at once."""

    TIMEOUT = 10.0

    def _storm(self):
        return FaultPlan([
            FaultSpec(site="engine.compiled.run", error=EngineFault,
                      probability=0.25),
            FaultSpec(site="engine.vectorized.batch", error=EngineFault,
                      probability=0.10),
            FaultSpec(site="access.zone_map", error=DataCorruptionFault,
                      probability=0.10),
            FaultSpec(site="server.executor_slow", value=0.01,
                      probability=0.30),
            FaultSpec(site="server.queue_stall", value=0.005,
                      probability=0.30),
            FaultSpec(site="server.deadline_skew", value=0.002,
                      probability=0.30),
        ], seed=CHAOS_SEED)

    def test_storm_invariants(self, tpch_catalog, query_registry,
                              reference_results):
        async def scenario():
            server = QueryServer(
                tpch_catalog, queries=query_registry,
                max_queue_depth=16, max_concurrency=8,
                base_budget=QueryBudget(check_interval=16),
                default_timeout_seconds=self.TIMEOUT)
            await server.start()
            results = []
            with inject(self._storm()):
                for level in (2, 4, 8):
                    names = list(itertools.islice(
                        itertools.cycle(QUERIES), level * len(QUERIES)))
                    results.extend(await asyncio.gather(
                        *[_timed_submit(server, name) for name in names]))
                await server.drain()
            return server, results

        server, results = asyncio.run(scenario())
        responses = [response for response, _ in results]
        assert len(responses) == (2 + 4 + 8) * len(QUERIES)
        # the ramp must actually exercise both the happy and the shed path
        assert any(response.ok for response in responses)
        assert any(response.status == "overloaded" for response in responses)
        for response, wall_seconds in results:
            if response.ok:
                _check_parity(reference_results, response)
            # the deadline invariant, end to end: no admitted query may hold
            # its caller past the deadline by more than the checkpoint slack
            assert wall_seconds <= self.TIMEOUT + DEADLINE_SLACK_SECONDS
        _reconcile(server, responses)
        _assert_drained(server)


@pytest.mark.timeout(120)
class TestDispatcherStallBurnsDeadlines:
    """A wedged dispatcher: queued requests' deadlines expire before
    dispatch and are dropped with typed responses — never executed late."""

    def test_expired_in_queue(self, tpch_catalog, query_registry,
                              reference_results):
        faults = FaultPlan([FaultSpec(site="server.queue_stall", value=0.05,
                                      fires_on=None)], seed=CHAOS_SEED)

        async def scenario():
            server = QueryServer(
                tpch_catalog, queries=query_registry,
                max_queue_depth=16, max_concurrency=1,
                base_budget=QueryBudget(check_interval=16),
                default_timeout_seconds=0.12)
            await server.start()
            with inject(faults):
                results = await asyncio.gather(
                    *[_timed_submit(server, "Q6") for _ in range(6)])
                await server.drain()
            return server, results

        server, results = asyncio.run(scenario())
        responses = [response for response, _ in results]
        # with a 50ms stall per dispatch and a 120ms deadline, the tail of
        # the queue cannot survive; expiry must be typed and pre-execution
        expired = [r for r in responses if r.status == "deadline_exceeded"]
        assert expired, "the stall must burn at least one deadline"
        assert any(r.reason == "expired_in_queue" for r in expired)
        for response, wall_seconds in results:
            if response.ok:
                _check_parity(reference_results, response)
            assert wall_seconds <= 0.12 + DEADLINE_SLACK_SECONDS
        # each pre-execution drop is one incident carrying the response's
        # reason as its cause; a budget_timeout ran and tripped the governor
        dropped = sorted(r.reason for r in expired
                         if r.reason != "budget_timeout")
        assert sorted(record.cause for record in
                      server.incidents.records("deadline_expired")) == dropped
        assert set(dropped) <= {"expired_in_queue", "expired_before_execute"}
        _reconcile(server, responses)
        _assert_drained(server)


@pytest.mark.timeout(120)
class TestDeadlineSkew:
    """A skewed clock tightens the translated budget; with overwhelming skew
    every request is dropped at the execution boundary, none run hopeless."""

    def test_skew_drops_before_execution(self, tpch_catalog, query_registry):
        faults = FaultPlan([FaultSpec(site="server.deadline_skew",
                                      value=100.0, fires_on=None)],
                           seed=CHAOS_SEED)

        async def scenario():
            server = QueryServer(tpch_catalog, queries=query_registry,
                                 default_timeout_seconds=5.0)
            await server.start()
            with inject(faults):
                responses = await asyncio.gather(
                    *[server.submit(name) for name in QUERIES])
                await server.drain()
            return server, responses

        server, responses = asyncio.run(scenario())
        for response in responses:
            assert response.status == "deadline_exceeded"
            assert response.reason == "expired_before_execute"
            assert response.rows is None
            assert response.tier == ""  # no engine ever ran
        _reconcile(server, responses)
        _assert_drained(server)


@pytest.mark.timeout(300)
class TestDegradedPathParity:
    """Every fast tier dies on every request: the served answers come from
    the interpreter and still match the reference exactly."""

    def test_interpreter_answers_match(self, tpch_catalog, query_registry,
                                       reference_results):
        faults = FaultPlan([
            FaultSpec(site="engine.compiled.run", error=EngineFault,
                      fires_on=None),
            FaultSpec(site="engine.vectorized.batch", error=EngineFault,
                      fires_on=None),
        ], seed=CHAOS_SEED)

        async def scenario():
            server = QueryServer(tpch_catalog, queries=query_registry,
                                 max_queue_depth=64)
            await server.start()
            with inject(faults):
                responses = await asyncio.gather(
                    *[server.submit(name) for name in QUERIES for _ in range(2)])
                await server.drain()
            return server, responses

        server, responses = asyncio.run(scenario())
        for response in responses:
            assert response.ok
            assert response.tier == "interpreter"
            assert response.attempts == 2  # compiled + vectorized both fell
            _check_parity(reference_results, response)
        assert server.incidents.count("tier_failure") == 2 * len(responses)
        _reconcile(server, responses)
        _assert_drained(server)


@pytest.mark.timeout(120)
class TestDrainUnderStorm:
    """Drain mid-storm: every outstanding future resolves (typed), nothing
    is orphaned, and the server lands in ``stopped`` with zero in-flight."""

    def test_zero_orphans(self, tpch_catalog, query_registry,
                          reference_results):
        faults = FaultPlan([
            FaultSpec(site="server.executor_slow", value=0.1,
                      probability=0.5),
            FaultSpec(site="engine.compiled.run", error=EngineFault,
                      probability=0.3),
        ], seed=CHAOS_SEED)

        async def scenario():
            server = QueryServer(tpch_catalog, queries=query_registry,
                                 max_queue_depth=32, max_concurrency=2)
            await server.start()
            with inject(faults):
                tasks = [asyncio.create_task(server.submit(name))
                         for name in QUERIES for _ in range(3)]
                await asyncio.sleep(0.02)  # a few dispatch, the rest queue
                await server.drain(timeout_seconds=0.05)
                responses = await asyncio.gather(*tasks)
            return server, responses

        server, responses = asyncio.run(scenario())
        assert len(responses) == 12  # every future resolved: zero orphans
        for response in responses:
            assert response.status in STATUSES
            if response.ok:
                _check_parity(reference_results, response)
            elif response.status == "overloaded":
                assert response.reason in ("shutdown", "draining",
                                           "not_serving", "queue_full")
        _reconcile(server, responses)
        _assert_drained(server)
