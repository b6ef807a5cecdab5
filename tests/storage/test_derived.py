"""The derived cache: one bounded LRU class for generation-derived state.

Unit tests of :class:`repro.storage.derived.DerivedCache` on its own, the
invalidation contract through ``Catalog.register``, and a time-bounded
stress test of the process-wide lock (lost counter updates, bound overruns
and entries resurrected across an invalidation are what it would show).
"""
import gc
import sys
import threading
import time

import pytest

from repro.storage.access import AccessLayer
from repro.storage.derived import COMPILED, PLANS, DerivedCache


@pytest.fixture(autouse=True)
def fresh_caches():
    saved = DerivedCache.capacity
    DerivedCache.clear_all()
    yield
    DerivedCache.set_capacity(saved)
    DerivedCache.clear_all()


def _never():
    raise AssertionError("a hit must not build")


class TestLookup:
    def test_miss_builds_and_stores_hit_returns_the_shared_value(self):
        cache = DerivedCache()
        value, hit = cache.lookup(PLANS, "k", lambda: ["built"])
        assert (value, hit) == (["built"], False)
        again, hit = cache.lookup(PLANS, "k", _never)
        assert hit and again is value
        stats = DerivedCache.stats[PLANS]
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)

    def test_kinds_are_separate_namespaces_with_separate_counters(self):
        cache = DerivedCache()
        cache.lookup(PLANS, "k", lambda: "plan")
        value, hit = cache.lookup(COMPILED, "k", lambda: "code")
        assert (value, hit) == ("code", False)
        assert cache.entry_count(PLANS) == cache.entry_count(COMPILED) == 1
        assert DerivedCache.stats[COMPILED].misses == 1
        assert DerivedCache.stats[PLANS].misses == 1

    def test_a_failed_build_stores_and_counts_nothing(self):
        cache = DerivedCache()
        with pytest.raises(ZeroDivisionError):
            cache.lookup(PLANS, "k", lambda: 1 / 0)
        assert not cache.contains(PLANS, "k")
        assert DerivedCache.stats[PLANS].misses == 0

    def test_contains_neither_counts_nor_refreshes_recency(self):
        DerivedCache.set_capacity(2)
        cache = DerivedCache()
        cache.lookup(PLANS, "old", lambda: 1)
        cache.lookup(PLANS, "new", lambda: 2)
        assert cache.contains(PLANS, "old")
        cache.lookup(PLANS, "newer", lambda: 3)  # evicts "old" regardless
        assert not cache.contains(PLANS, "old")
        assert DerivedCache.stats[PLANS].hits == 0


class TestBound:
    def test_each_kind_is_bounded_on_its_own_lru_first(self):
        DerivedCache.set_capacity(2)
        cache = DerivedCache()
        for key in "abc":
            cache.lookup(PLANS, key, lambda key=key: key)
            cache.lookup(COMPILED, key, lambda key=key: key)
        assert cache.entry_count(PLANS) == cache.entry_count(COMPILED) == 2
        assert not cache.contains(PLANS, "a") and cache.contains(PLANS, "c")
        assert DerivedCache.stats[PLANS].evictions == 1
        assert DerivedCache.stats[COMPILED].evictions == 1

    def test_shrinking_trims_every_live_cache_immediately(self):
        first, second = DerivedCache(), DerivedCache()
        for n in range(3):
            first.lookup(PLANS, n, lambda n=n: n)
            second.lookup(PLANS, n, lambda n=n: n)
        assert DerivedCache.total(PLANS) == 6
        DerivedCache.set_capacity(1)
        assert first.entry_count(PLANS) == second.entry_count(PLANS) == 1
        assert first.contains(PLANS, 2)
        assert DerivedCache.stats[PLANS].evictions == 4

    def test_a_dead_cache_leaves_the_process_wide_view(self):
        cache = DerivedCache()
        cache.lookup(PLANS, "k", lambda: 1)
        assert DerivedCache.total(PLANS) == 1
        del cache
        gc.collect()
        assert DerivedCache.total(PLANS) == 0


class TestInvalidation:
    def test_register_empties_every_kind_in_the_generation_bump(self, tiny_catalog):
        layer = AccessLayer.for_catalog(tiny_catalog)
        layer.derived.lookup(PLANS, "p", lambda: "tree")
        layer.derived.lookup(COMPILED, "c", lambda: "code")
        generation = layer.generation
        tiny_catalog.register(tiny_catalog.table("S"))
        assert layer.generation == generation + 1
        assert layer.derived.entry_count(PLANS) == 0
        assert layer.derived.entry_count(COMPILED) == 0
        # an invalidation is not an eviction: the bound pushed nothing out
        assert DerivedCache.stats[PLANS].evictions == 0

    def test_other_catalogs_keep_their_entries(self, tiny_catalog):
        other = DerivedCache()
        other.lookup(PLANS, "k", lambda: 1)
        tiny_catalog.register(tiny_catalog.table("S"))
        assert other.contains(PLANS, "k")

    def test_a_build_that_straddles_an_invalidation_is_not_stored(self):
        cache = DerivedCache()

        def build_across_a_reload():
            cache.invalidate()
            return "derived from the replaced data"

        value, hit = cache.lookup(PLANS, "k", build_across_a_reload)
        assert value == "derived from the replaced data" and not hit
        assert not cache.contains(PLANS, "k")
        assert cache.lookup(PLANS, "k", lambda: "fresh") == ("fresh", False)
        assert cache.lookup(PLANS, "k", _never) == ("fresh", True)


@pytest.mark.timeout(60)
class TestStress:
    def test_lookups_invalidations_and_rebounds_from_many_threads(self):
        """More threads than cores, a short switch interval: every lookup is
        counted exactly once, no cache ever exceeds the bound, and nothing
        built before an invalidation is served after it."""
        threads, rounds, keys = 8, 400, 12
        # the bound the workers assert must hold before the first of them
        # runs, not from the disturber's first ``set_capacity`` on: until
        # then the capacity is what the last test left (512), and a disturber
        # descheduled for a few hundred microseconds let 12 keys into a cache
        DerivedCache.set_capacity(8)
        caches = [DerivedCache(), DerivedCache()]
        epoch = [0]  # bumped *before* each invalidation
        errors = []
        done = threading.Event()

        def worker(index):
            cache = caches[index % 2]
            try:
                for n in range(rounds):
                    key = (index * 7 + n) % keys
                    seen = epoch[0]
                    built_at, _ = cache.lookup(PLANS, key, lambda: epoch[0])
                    # a value older than the epoch read before the lookup
                    # was built before an invalidation that had finished
                    assert built_at >= seen - 1, (built_at, seen)
                    assert cache.entry_count(PLANS) <= 8
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def disturber():
            n = 0
            while not done.is_set():
                n += 1
                DerivedCache.set_capacity(4 if n % 2 else 8)
                epoch[0] += 1
                for cache in caches:
                    cache.invalidate()
                time.sleep(0.0005)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker, args=(i,))
                       for i in range(threads)]
            chaos = threading.Thread(target=disturber)
            chaos.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=50)
            done.set()
            chaos.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers) and not chaos.is_alive()
        assert errors == []
        stats = DerivedCache.stats[PLANS]
        assert stats.hits + stats.misses == threads * rounds
        assert all(cache.entry_count(PLANS) <= 8 for cache in caches)
