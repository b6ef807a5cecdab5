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
from repro.robustness.faults import EngineFault, FaultPlan, FaultSpec, inject
from repro.robustness.governor import QueryBudget
from repro.server import QueryServer
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
            server = QueryServer(tiny_catalog, max_concurrency=1)
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
        trip = server.incidents.last("budget_trip")
        assert (trip.query, trip.cause) == ("bt", "budget:timeout")
        assert server.stats()["responses_by_status"] == {"deadline_exceeded": 1}

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

    def test_a_base_budget_without_a_timeout_installs_no_governor(self, tiny_catalog):
        """A check interval alone is nothing to enforce: with no request
        deadline the run is ungoverned, and with one the interval is kept."""
        server = QueryServer(tiny_catalog,
                             base_budget=QueryBudget(check_interval=64))
        assert server._budget_for(None) is None
        assert server._budget_for(2.5) == QueryBudget(timeout_seconds=2.5,
                                                      check_interval=64)

    def test_a_check_interval_alone_is_served_ungoverned(self, tiny_catalog):
        """Through ``submit``: the ladder gets no budget for a request without
        a deadline, and a deadline-bearing request keeps the interval."""
        server = QueryServer(tiny_catalog,
                             base_budget=QueryBudget(check_interval=64))
        handed = []
        execute = server.executor.execute

        def spy(plan, name, budget=None):
            handed.append(budget)
            return execute(plan, name, budget=budget)

        server.executor.execute = spy

        async def scenario():
            await server.start()
            try:
                return [await server.submit(_scan_plan(), "free"),
                        await server.submit(_scan_plan(), "timed",
                                            timeout_seconds=30.0)]
            finally:
                await server.drain()

        responses = _run(scenario())
        assert [response.status for response in responses] == ["ok", "ok"]
        assert handed[0] is None
        assert handed[1].check_interval == 64
        assert 0.0 < handed[1].timeout_seconds <= 30.0

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
                name=name, plan=queries[name], deadline=None,
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
                                 max_concurrency=1)
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



async def _peak_in_flight(server, submits):
    """Run ``submits`` concurrently, sampling ``in_flight`` on the loop;
    returns the largest sample and the responses."""
    gathered = asyncio.gather(*submits)
    peak = 0
    while not gathered.done():
        peak = max(peak, server.stats()["in_flight"])
        await asyncio.sleep(0.002)
    return peak, await gathered


def _slow_storm():
    return FaultSpec(site="server.executor_slow", value=0.05, fires_on=None)


class TestFixedWindow:
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_peak_in_flight_is_the_window(self, tiny_catalog, window):
        """Slow workers hold every slot: exactly ``window`` requests run at
        once and the rest wait in the queue."""
        async def scenario():
            server = QueryServer(tiny_catalog, max_concurrency=window)
            await server.start()
            with inject(FaultPlan([_slow_storm()])):
                peak, responses = await _peak_in_flight(server, [
                    server.submit(_scan_plan(), f"q{n}")
                    for n in range(3 * window)])
                await server.drain()
            return peak, responses

        peak, responses = _run(scenario())
        assert peak == window
        assert all(response.ok for response in responses)
        # the last wave queued behind two full waves of slow workers
        assert max(r.queue_seconds for r in responses) >= 2 * 0.05 * 0.9

    @pytest.mark.parametrize("reason", ["expired_in_queue",
                                        "expired_before_execute",
                                        "budget_timeout", "ladder_exhausted"])
    def test_window_unchanged_after_a_missed_or_failed_request(
            self, tiny_catalog, reason):
        """Whatever a request ends in, the next burst still runs the full
        window: no outcome shrinks it."""
        provoke = {
            "expired_in_queue": (
                [FaultSpec(site="server.queue_stall", value=0.05)],
                {"timeout_seconds": 0.01}, None),
            "expired_before_execute": (
                [FaultSpec(site="server.deadline_skew", value=100.0)],
                {"timeout_seconds": 5.0}, None),
            "budget_timeout": (
                [], {}, QueryBudget(timeout_seconds=0.0, check_interval=1)),
            "ladder_exhausted": (
                [FaultSpec(site=site, error=EngineFault, fires_on=None)
                 for site in ("engine.compiled.run", "engine.vectorized.batch",
                              "engine.volcano.operator")],
                {}, None),
        }
        specs, submit_kwargs, base_budget = provoke[reason]

        async def scenario():
            server = QueryServer(tiny_catalog, max_concurrency=2,
                                 base_budget=base_budget)
            await server.start()
            with inject(FaultPlan(specs)):
                first = await server.submit(_scan_plan(), "first",
                                            **submit_kwargs)
            with inject(FaultPlan([_slow_storm()])):
                peak, _ = await _peak_in_flight(server, [
                    server.submit(_scan_plan(), f"q{n}") for n in range(6)])
                await server.drain()
            return server, first, peak

        server, first, peak = _run(scenario())
        assert first.reason == reason
        assert first.rows is None
        assert peak == 2
        assert server.stats()["limiter"] == {"limit": 2}

    def test_dispatch_is_fifo_across_deadlines(self, tiny_catalog):
        """A nearer deadline does not jump the queue: with a window of one,
        requests run, and finish, in the order they arrived."""
        finished = []

        async def scenario():
            server = QueryServer(tiny_catalog, max_concurrency=1)
            await server.start()

            async def tracked(name, timeout):
                response = await server.submit(_scan_plan(), name,
                                               timeout_seconds=timeout)
                finished.append(name)
                return response

            responses = await asyncio.gather(
                tracked("late", 30.0), tracked("soon", 5.0),
                tracked("none", None), tracked("mid", 10.0))
            await server.drain()
            return responses

        responses = _run(scenario())
        assert all(response.ok for response in responses)
        assert finished == ["late", "soon", "none", "mid"]
        waits = [response.queue_seconds for response in responses]
        assert waits == sorted(waits)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_is_rejected(self, tiny_catalog, window):
        with pytest.raises(ValueError, match="max_concurrency"):
            QueryServer(tiny_catalog, max_concurrency=window)

    @pytest.mark.parametrize("kwargs, window", [
        ({"max_concurrency": 1}, 1), ({"max_concurrency": 4}, 4), ({}, 32)])
    def test_stats_report_the_window(self, tiny_catalog, kwargs, window):
        """``stats()["limiter"]["limit"]`` is the fixed window, before
        start and after drain alike."""
        async def scenario():
            server = QueryServer(tiny_catalog, **kwargs)
            before = server.stats()["limiter"]["limit"]
            await server.start()
            await server.submit(_scan_plan(), "q")
            await server.drain()
            return before, server.stats()["limiter"]["limit"]

        assert _run(scenario()) == (window, window)
