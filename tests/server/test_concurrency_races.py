"""Regression tests for the races the concurrency analyzer polices.

Warmth is "the compiled entry is in the catalog's derived cache": executor
worker threads insert entries (one per successful compiled-tier run of a new
plan) while ``stats()`` reads the entry count from whatever thread the
monitoring caller lives on — a reader/writer pair the cache's own lock
covers (the server itself owns none).  These tests drive that overlap for
real: a burst of concurrent submissions warming plans while monitor threads
hammer ``stats()`` and the loop drains mid-storm.  No pytest-asyncio in the
image, so each test runs its own loop via ``asyncio.run``.
"""
import asyncio
import threading

from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.server import QueryServer


def _plan(threshold):
    return Q.Select(Q.Scan("S"), col("s_val") > threshold)


class TestWarmVersusDrain:
    def test_stats_reads_race_warming_writes(self, tiny_catalog):
        """Monitor threads call ``stats()`` throughout a submission storm
        and the drain; every snapshot must be internally consistent and
        every submission must resolve to a typed response."""
        server = QueryServer(tiny_catalog, max_concurrency=4)
        stop = threading.Event()
        snapshots = []
        errors = []

        def monitor():
            while not stop.is_set():
                try:
                    snapshots.append(server.stats())
                except Exception as error:  # noqa: BLE001 - the regression
                    errors.append(error)

        monitors = [threading.Thread(target=monitor) for _ in range(3)]

        async def scenario():
            await server.start()
            for thread in monitors:
                thread.start()
            # distinct thresholds → distinct fingerprints → every request
            # warms a new plan while the monitors read the warm count
            responses = await asyncio.gather(
                *(server.submit(_plan(i / 100.0), f"q{i}")
                  for i in range(24)))
            await server.drain()
            return responses

        try:
            responses = asyncio.run(scenario())
        finally:
            stop.set()
            for thread in monitors:
                thread.join()

        assert not errors
        assert server.state == "stopped"
        assert len(responses) == 24
        assert all(r.status in ("ok", "overloaded", "deadline_exceeded",
                                "failed") for r in responses)
        completed = sum(1 for r in responses if r.ok)
        final = server.stats()
        # every completed request cached its (distinct) compiled plan, and
        # the final warm count reflects all of them — no lost updates
        assert final["warm_plans"] >= completed > 0
        assert all(s["warm_plans"] <= 24 for s in snapshots)

    def test_drain_after_storm_leaves_no_orphans(self, tiny_catalog):
        """Submissions racing ``drain()`` either execute or get a typed
        rejection; nothing hangs and the pool shuts down."""
        server = QueryServer(tiny_catalog, max_concurrency=2)

        async def scenario():
            await server.start()
            submitted = [
                asyncio.ensure_future(server.submit(_plan(i / 10.0), f"s{i}"))
                for i in range(12)
            ]
            await asyncio.sleep(0)  # let offers land before draining
            await server.drain()
            return await asyncio.gather(*submitted)

        responses = asyncio.run(scenario())
        assert len(responses) == 12
        assert all(r.status in ("ok", "overloaded", "deadline_exceeded",
                                "failed") for r in responses)
        assert server.state == "stopped"
        stats = server.stats()
        assert stats["in_flight"] == 0
        assert stats["pending"] == 0
