"""Concurrent-access stress tests for the serving substrate.

The async front door executes queries on a thread pool, so the pieces it
shares across workers — :class:`IncidentLog`, :class:`CircuitBreaker` and
the process-wide compiled-query cache — must hold up under concurrency.
These tests hammer each from many threads and assert *exact* counter
arithmetic (lost updates are the failure mode locks exist to prevent), and
pin the one genuinely subtle interleaving: a compile that started before a
table re-registration must not resurrect its stale entry after the
generation bump evicted that data's cache cohort.
"""
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.codegen.compiler import QueryCompiler
from repro.dsl import qplan as Q
from repro.dsl.expr import col
from repro.robustness.fallback import (BREAKER_COOLDOWN_SECONDS,
                                       BREAKER_THRESHOLD, CircuitBreaker,
                                       HardenedExecutor)
from repro.robustness.faults import FaultPlan, FaultSpec, inject
from repro.robustness.incidents import CAPACITY, CATEGORIES, IncidentLog
from repro.stack.configs import build_config
from repro.storage.access import AccessLayer
from repro.storage.derived import COMPILED, PROBATION

THREADS = 8
REPORTS_PER_THREAD = 200


class TestIncidentLogConcurrency:
    def test_no_lost_reports_under_concurrent_writers(self):
        log = IncidentLog()
        barrier = threading.Barrier(THREADS)

        def hammer(thread_id):
            barrier.wait()
            for i in range(REPORTS_PER_THREAD):
                log.report(CATEGORIES[i % len(CATEGORIES)],
                           query=f"t{thread_id}", tier="compiled")

        with ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(hammer, range(THREADS)))

        snapshot = log.snapshot()
        total = THREADS * REPORTS_PER_THREAD
        assert snapshot["total_reported"] == total
        assert sum(snapshot["by_category"].values()) == total
        assert snapshot["buffered"] == CAPACITY  # ring stayed bounded
        assert snapshot["evicted"] == total - CAPACITY
        assert len(log) == CAPACITY

    def test_concurrent_readers_see_consistent_records(self):
        log = IncidentLog()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                log.report("tier_failure", query=f"q{i}")
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    records = log.records(category="tier_failure")
                    assert all(r.category == "tier_failure" for r in records)
                    log.snapshot()
                    log.last()
                    len(log)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)
                    stop.set()

        threads = [threading.Thread(target=writer) for _ in range(2)] + \
                  [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=10)
        timer.cancel()
        assert errors == []

    def test_unique_seq_under_concurrency(self):
        log = IncidentLog()

        def hammer(_):
            return [log.report("budget_trip").seq
                    for _ in range(REPORTS_PER_THREAD)]

        with ThreadPoolExecutor(THREADS) as pool:
            seqs = [seq for chunk in pool.map(hammer, range(THREADS))
                    for seq in chunk]
        assert len(set(seqs)) == len(seqs)


class TestCircuitBreakerConcurrency:
    def test_exact_failure_counting(self):
        """Lost increments would leave the counter short of the failures
        recorded; with the lock the arithmetic is exact: one True per
        failure at-or-past the threshold."""
        total = THREADS * 50
        breaker = CircuitBreaker()
        key = ("fp", "compiled")
        barrier = threading.Barrier(THREADS)

        def hammer(_):
            barrier.wait()
            return sum(1 for _ in range(50) if breaker.record_failure(key))

        with ThreadPoolExecutor(THREADS) as pool:
            opens = sum(pool.map(hammer, range(THREADS)))
        assert key in breaker._opened_at
        assert not breaker.allow(key)
        assert breaker._failures[key] == total
        assert opens == total - (BREAKER_THRESHOLD - 1)

    def test_concurrent_callers_of_a_cooled_breaker_get_one_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        key = ("fp", "compiled")
        for _ in range(BREAKER_THRESHOLD):
            breaker.record_failure(key)
        now[0] = BREAKER_COOLDOWN_SECONDS + 1.0
        barrier = threading.Barrier(THREADS)

        def probe(_):
            barrier.wait()
            return breaker.allow(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(THREADS) as pool:
                granted = list(pool.map(probe, range(THREADS)))
        finally:
            sys.setswitchinterval(interval)
        assert granted.count(True) == 1

    def test_success_failure_races_leave_consistent_state(self):
        breaker = CircuitBreaker()
        key = ("fp", "vectorized")
        stop = threading.Event()
        errors = []

        def flip(record):
            while not stop.is_set():
                try:
                    record(key)
                    breaker.allow(key)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)
                    stop.set()

        threads = [threading.Thread(target=flip, args=(breaker.record_failure,)),
                   threading.Thread(target=flip, args=(breaker.record_success,))]
        for thread in threads:
            thread.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for thread in threads:
            thread.join(timeout=10)
        timer.cancel()
        assert errors == []
        # terminal state is one of the two legal ones, not corruption
        breaker.record_success(key)
        assert key not in breaker._opened_at


def _compiler():
    config = build_config("dblab-5")
    return QueryCompiler(config.stack,
                         config.flags.copy_with(logical_plan_optimizer=False))


def _scan_plan(threshold=0.0):
    return Q.Select(Q.Scan("S"), col("s_val") > threshold)


class TestCompiledQueryCacheConcurrency:
    @pytest.mark.parametrize("capacity", [4, PROBATION + 2])
    def test_concurrent_hits_and_inserts_stay_bounded(self, tiny_catalog,
                                                      capacity):
        """Concurrent misses, probation hits (promotions) and protected hits:
        both segments stay within their share of the bound."""
        QueryCompiler.clear_cache()
        QueryCompiler.set_cache_capacity(capacity)
        try:
            compiler = _compiler()
            plans = [_scan_plan(i / 10.0) for i in range(2 * capacity)]
            barrier = threading.Barrier(THREADS)
            errors = []

            def hammer(thread_id):
                barrier.wait()
                try:
                    for i in range(20):
                        plan = plans[(thread_id + i) % len(plans)]
                        compiled = compiler.compile(plan, tiny_catalog, "cq")
                        assert compiled.run(tiny_catalog) is not None
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            with ThreadPoolExecutor(THREADS) as pool:
                list(pool.map(hammer, range(THREADS)))
            assert errors == []
            derived = AccessLayer.for_catalog(tiny_catalog).derived
            assert derived.entry_count(COMPILED) <= capacity
            room = min(capacity, PROBATION)
            assert len(derived._probation[COMPILED]) <= room
            assert len(derived._protected[COMPILED]) <= capacity - room
            assert QueryCompiler.cache_stats.hits > 0
        finally:
            QueryCompiler.set_cache_capacity(512)
            QueryCompiler.clear_cache()

    def test_generation_bump_during_concurrent_lookup_cannot_resurrect(
            self, tiny_catalog):
        """A compile that began before a table re-registration finishes
        *after* the generation bump: its result must not be inserted — that
        would resurrect state derived from the replaced data, over the fresh
        entry compiled meanwhile."""
        QueryCompiler.clear_cache()
        try:
            compiler = _compiler()
            plan = _scan_plan()
            stale_started = threading.Event()
            release = threading.Event()

            def block_first_compile(_context):
                # only the first (stale) compile blocks; the fresh compile
                # on the main thread sails through (fires_on=(1,))
                stale_started.set()
                assert release.wait(timeout=30)

            faults = FaultPlan([FaultSpec(site="compiler.compile",
                                          action=block_first_compile,
                                          fires_on=(1,))])
            with inject(faults):
                stale_thread = threading.Thread(
                    target=lambda: compiler.compile(plan, tiny_catalog, "rq"))
                stale_thread.start()
                assert stale_started.wait(timeout=30)
                # the stale compile has missed the cache and is stuck
                # mid-compile; now the table re-registers
                tiny_catalog.register(tiny_catalog.table("S"))
                live_generation = AccessLayer.for_catalog(tiny_catalog).generation
                fresh = compiler.compile(plan, tiny_catalog, "rq")
                assert not fresh.cache_hit
                release.set()
                stale_thread.join(timeout=30)
                assert not stale_thread.is_alive()

            # the fresh entry survived the stale compile's return: the next
            # compile is a cache hit on code compiled against the live data
            assert AccessLayer.for_catalog(tiny_catalog).derived.entry_count(
                COMPILED) == 1
            again = compiler.compile(plan, tiny_catalog, "rq")
            assert again.cache_hit
            assert again._compiled_generation == live_generation
        finally:
            QueryCompiler.clear_cache()


@pytest.mark.timeout(120)
class TestHardenedExecutorConcurrency:
    def test_concurrent_executions_share_one_executor(self, tiny_catalog):
        """The serving layer's usage pattern: one executor, many worker
        threads, subplan-sharing state isolated per thread."""
        executor = HardenedExecutor(tiny_catalog, incidents=IncidentLog())
        plan = _scan_plan()
        from repro.engine.volcano import VolcanoEngine
        reference = VolcanoEngine(tiny_catalog).execute(plan)
        errors = []

        def run(_):
            try:
                report = executor.execute(plan, "tq")
                assert report.rows == reference
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        with ThreadPoolExecutor(THREADS) as pool:
            list(pool.map(run, range(THREADS * 4)))
        assert errors == []
