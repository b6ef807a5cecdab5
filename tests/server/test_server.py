"""QueryServer lifecycle, deadline propagation and load-shedding tests.

No pytest-asyncio in the image: each test drives its own event loop with
``asyncio.run``.  Determinism notes: coroutines submitted together via
``gather`` run their synchronous prefix (including ``offer``) in creation
order before the dispatcher task resumes, so queue occupancy at each offer
— and therefore which requests the bounded queue rejects — is exact.
"""
import asyncio

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.engine.volcano import VolcanoEngine
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from repro.robustness.governor import QueryBudget
from repro.server import QueryServer, serve_one_shot
from repro.server.admission import AdmittedRequest
from repro.tpch.dbgen import generate_catalog
from repro.tpch.queries import build_query


def _scan_plan():
    return Q.Select(Q.Scan("S"), col("s_val") > 0.0)


def _run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_initial_state(self, tiny_catalog):
        server = QueryServer(tiny_catalog)
        assert server.state == "new"
        assert server.health()["state"] == "new"
        assert not server.readiness()["ready"]

    def test_start_serve_drain(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            assert server.state == "serving"
            assert server.readiness()["ready"]
            assert server.health()["status"] == "ok"
            response = await server.submit(_scan_plan(), "tq")
            assert response.ok
            await server.drain()
            assert server.state == "stopped"
            assert not server.readiness()["ready"]
            return server

        server = _run(scenario())
        stats = server.stats()
        assert stats["in_flight"] == 0
        assert stats["pending"] == 0

    def test_submit_before_start_is_typed_overloaded(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            return server, await server.submit(_scan_plan(), "early")

        server, response = _run(scenario())
        assert response.status == "overloaded"
        assert response.reason == "not_serving"
        assert server.incidents.count("admission_reject") == 1

    def test_submit_after_drain_is_typed_overloaded(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            await server.drain()
            return await server.submit(_scan_plan(), "late")

        response = _run(scenario())
        assert response.status == "overloaded"
        assert response.reason == "not_serving"

    def test_start_twice_raises(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            with pytest.raises(RuntimeError):
                await server.start()
            await server.drain()

        _run(scenario())

    def test_drain_before_start_is_a_noop_stop(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.drain()
            assert server.state == "stopped"
            await server.drain()  # idempotent
            assert server.state == "stopped"

        _run(scenario())

    def test_unknown_query_name_is_typed_failed(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            try:
                return await server.submit("no-such-query")
            finally:
                await server.drain()

        response = _run(scenario())
        assert response.status == "failed"
        assert response.reason == "unknown_query"

    def test_drain_completes_in_flight_work(self, tiny_catalog):
        """drain() waits for the dispatched query; its caller still gets ok."""
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            faults = FaultPlan([FaultSpec(site="server.executor_slow",
                                          value=0.2, fires_on=(1,))])
            with inject(faults):
                task = asyncio.create_task(server.submit(_scan_plan(), "slow"))
                await asyncio.sleep(0.05)  # let it dispatch
                await server.drain()
            return server, await task

        server, response = _run(scenario())
        assert response.ok
        assert server.state == "stopped"

    def test_timed_drain_sheds_queued_requests_with_no_orphans(
            self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog, initial_concurrency=1,
                                 max_concurrency=1)
            await server.start()
            faults = FaultPlan([FaultSpec(site="server.executor_slow",
                                          value=0.3, fires_on=(1,))])
            with inject(faults):
                tasks = [asyncio.create_task(
                    server.submit(_scan_plan(), f"q{n}")) for n in range(3)]
                await asyncio.sleep(0.05)  # q0 dispatched, q1/q2 queued
                await server.drain(timeout_seconds=0.01)
                responses = await asyncio.gather(*tasks)
            return server, responses

        server, responses = _run(scenario())
        assert server.state == "stopped"
        assert responses[0].ok  # in-flight work is always completed
        for response in responses[1:]:
            assert response.status == "overloaded"
            assert response.reason == "shutdown"
        assert server.incidents.count("admission_reject") == 2
        stats = server.stats()
        assert stats["in_flight"] == 0 and stats["pending"] == 0


class TestWarmUp:
    def test_warmup_precompiles_and_marks_warm(self, tpch_catalog):
        from repro.tpch.queries import build_query

        async def scenario():
            server = QueryServer(tpch_catalog,
                                 queries={"Q6": build_query("Q6")},
                                 warmup=("Q6",))
            await server.start()
            assert server.readiness()["warmed_queries"] == 1
            assert server.stats()["warm_plans"] >= 1
            response = await server.submit("Q6")
            await server.drain()
            return response

        response = _run(scenario())
        assert response.ok
        assert response.tier == "compiled"

    def test_warmup_requires_registered_queries(self, tiny_catalog):
        with pytest.raises(ValueError):
            QueryServer(tiny_catalog, warmup=("Q6",))


class TestDeadlinePropagation:
    def test_zero_timeout_is_dead_on_arrival(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            try:
                return server, await server.submit(_scan_plan(), "dz",
                                                   timeout_seconds=0.0)
            finally:
                await server.drain()

        server, response = _run(scenario())
        assert response.status == "deadline_exceeded"
        assert response.reason == "dead_on_arrival"
        assert response.rows is None  # never executed
        assert server.incidents.count("deadline_expired") == 1

    def test_near_zero_timeout_never_returns_late_rows(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog)
            await server.start()
            try:
                return await server.submit(_scan_plan(), "nz",
                                           timeout_seconds=1e-9)
            finally:
                await server.drain()

        response = _run(scenario())
        assert response.status == "deadline_exceeded"
        assert response.reason in ("dead_on_arrival", "expired_in_queue",
                                   "expired_before_execute", "budget_timeout")
        assert response.rows is None

    def test_base_budget_timeout_becomes_typed_deadline_response(
            self, tiny_catalog):
        """No request deadline, but a server-wide budget of zero seconds:
        the governed run trips and the caller sees deadline_exceeded with
        the partial-progress stats attached."""
        async def scenario():
            server = QueryServer(
                tiny_catalog,
                base_budget=QueryBudget(timeout_seconds=0.0, check_interval=1))
            await server.start()
            try:
                return server, await server.submit(_scan_plan(), "bt")
            finally:
                await server.drain()

        server, response = _run(scenario())
        assert response.status == "deadline_exceeded"
        assert response.reason == "budget_timeout"
        assert response.detail["stats"]["rows_processed"] >= 1
        assert server.incidents.count("budget_trip") >= 1
        assert server.stats()["limiter"]["overloads"] >= 1

    def test_request_deadline_tightens_the_base_budget(self, tiny_catalog):
        server = QueryServer(tiny_catalog,
                             base_budget=QueryBudget(timeout_seconds=30.0))
        budget = server._budget_for(2.5)
        assert budget.timeout_seconds == pytest.approx(2.5)
        # and the base wins when it is tighter than the remaining deadline
        assert server._budget_for(60.0).timeout_seconds == pytest.approx(30.0)
        assert server._budget_for(None).timeout_seconds == pytest.approx(30.0)
        # unlimited base + no deadline: no governor at all
        assert QueryServer(tiny_catalog)._budget_for(None) is None

    def test_default_timeout_applies_when_submit_gives_none(self, tiny_catalog):
        async def scenario():
            server = QueryServer(tiny_catalog, default_timeout_seconds=0.0)
            await server.start()
            try:
                return await server.submit(_scan_plan(), "dd")
            finally:
                await server.drain()

        response = _run(scenario())
        assert response.status == "deadline_exceeded"
        assert response.reason == "dead_on_arrival"


class TestLoadShedding:
    def test_warm_plans_is_truthful(self):
        """Warm means "the compiled entry exists now".  A re-registration or
        an LRU eviction makes a warmed query cold again, and its next
        request compiles afresh and still answers on the compiled tier."""
        catalog = generate_catalog(scale_factor=0.0005, seed=5)
        queries = {name: build_query(name) for name in ("Q6", "Q14")}

        def compiles(server, name):
            """Run one request on this thread, as a worker would; the
            compiled tier answers.  Returns the compile-cache misses."""
            misses = QueryCompiler.cache_stats.misses
            response = server._execute(AdmittedRequest(
                name=name, plan=queries[name], priority=0, deadline=None,
                enqueued_at=0.0), 0.0)
            assert response.ok and response.tier == "compiled"
            assert response.tier_policy == "full"
            return QueryCompiler.cache_stats.misses - misses

        async def scenario():
            server = QueryServer(catalog, queries=queries,
                                 warmup=tuple(queries))
            await server.start()
            try:
                assert server.stats()["warm_plans"] == 2
                assert compiles(server, "Q6") == 0

                catalog.register(catalog.table("lineitem"))
                assert server.stats()["warm_plans"] == 0
                assert compiles(server, "Q6") > 0
                assert server.stats()["warm_plans"] == 1

                for name in queries:  # Q14 is now the most recently used
                    server.executor.warm(queries[name], name)
                assert server.stats()["warm_plans"] == 2
                QueryCompiler.set_cache_capacity(1)
                assert server.stats()["warm_plans"] == 1
                assert compiles(server, "Q14") == 0
                assert compiles(server, "Q6") > 0
            finally:
                QueryCompiler.set_cache_capacity(saved)
                await server.drain()

        saved = QueryCompiler.cache_capacity
        _run(scenario())

    def test_one_ladder_at_any_occupancy_then_rejects(self, tiny_catalog):
        """Ten concurrent submissions against a depth-8 queue: the offers
        all land before the dispatcher runs, so occupancy ramps 0/8..7/8.
        Every admitted request runs on the configured ladder, cold plans at
        high occupancy included; only the queue bound answers pressure."""
        plan_s = _scan_plan()
        plan_r = Q.Scan("R")  # cold plan: first compiled at occupancy >= 0.5
        reference_r = VolcanoEngine(tiny_catalog).execute(plan_r)
        reference_s = VolcanoEngine(tiny_catalog).execute(plan_s)

        async def scenario():
            server = QueryServer(tiny_catalog, max_queue_depth=8,
                                 initial_concurrency=1, max_concurrency=1)
            await server.start()
            submits = [server.submit(plan_s, f"s{n}") for n in range(4)] + \
                      [server.submit(plan_r, f"r{n}") for n in range(3)] + \
                      [server.submit(plan_s, "tail"),
                       server.submit(plan_s, "shed-1"),
                       server.submit(plan_s, "shed-2")]
            responses = await asyncio.gather(*submits)
            await server.drain()
            return server, responses

        server, responses = _run(scenario())
        # offers 0-7, at every occupancy from 0/8 to 7/8: the compiled tier
        for n, response in enumerate(responses[:8]):
            assert response.ok, response
            assert response.tier == "compiled"
            assert response.tier_policy == "full"
            assert response.attempts == 0
            assert response.rows == (reference_r if 4 <= n < 7 else reference_s)
        # offers 8-9: bounded queue full — typed rejection, never executed
        for response in responses[8:]:
            assert response.status == "overloaded"
            assert response.reason == "queue_full"
            assert response.rows is None
        queue = server.stats()["queue"]
        assert queue["accepted"] == 8
        assert queue["rejected_queue_full"] == 2
        assert server.incidents.snapshot()["by_category"] == \
            {"admission_reject": 2}


class TestServeOneShot:
    def test_runs_and_drains(self, tiny_catalog):
        plan = _scan_plan()
        responses, server = _run(serve_one_shot(
            tiny_catalog, [(plan, f"q{n}", {}) for n in range(4)]))
        assert all(response.ok for response in responses)
        assert server.state == "stopped"
        assert sum(server.stats()["responses_by_status"].values()) == 4
