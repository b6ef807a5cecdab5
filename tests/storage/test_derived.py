"""The derived cache: one bounded, segmented LRU class for generation-derived
state.

Unit tests of :class:`repro.storage.derived.DerivedCache` on its own (a
build lands in probation, a hit promotes it, declared repeat traffic goes
straight to protected, the capacity bounds both segments), the invalidation
contract through ``Catalog.register``, and a time-bounded stress test of the
process-wide lock (lost counter updates, bound overruns, promotions racing
invalidations and entries resurrected across one are what it would show).
"""
import gc
import sys
import threading
import time
import weakref
from contextlib import nullcontext

import pytest

from repro.storage.access import AccessLayer
from repro.storage.derived import (COMPILED, PLANS, PROBATION, DerivedCache,
                                   repeat_traffic)


@pytest.fixture(autouse=True)
def fresh_caches():
    saved = DerivedCache.capacity
    DerivedCache.clear_all()
    yield
    DerivedCache.set_capacity(saved)
    DerivedCache.clear_all()


def _never():
    raise AssertionError("a hit must not build")


def _segments(cache, kind=PLANS):
    """``(probation keys, protected keys)``, oldest first."""
    return list(cache._probation[kind]), list(cache._protected[kind])


def _holds(cache, key, kind=PLANS):
    """Whether ``key`` is cached now, read without a lookup (which counts
    and promotes)."""
    probation, protected = _segments(cache, kind)
    return key in probation or key in protected


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
        assert not _holds(cache, "k")
        assert DerivedCache.stats[PLANS].misses == 0


class TestBound:
    def test_each_kind_keeps_at_most_probation_one_shot_entries_oldest_out(self):
        cache = DerivedCache()
        for n in range(PROBATION + 1):
            cache.lookup(PLANS, n, lambda n=n: n)
            cache.lookup(COMPILED, n, lambda n=n: n)
        assert cache.entry_count(PLANS) == cache.entry_count(COMPILED) == PROBATION
        assert not _holds(cache, 0) and _holds(cache, PROBATION)
        assert DerivedCache.stats[PLANS].evictions == 1
        assert DerivedCache.stats[COMPILED].evictions == 1

    def test_shrinking_trims_every_live_cache_keeping_what_repeated(self):
        first, second = DerivedCache(), DerivedCache()
        for cache in (first, second):
            for n in range(3):
                cache.lookup(PLANS, n, lambda n=n: n)
            cache.lookup(PLANS, 0, _never)  # promoted
        assert first.entry_count(PLANS) + second.entry_count(PLANS) == 6
        DerivedCache.set_capacity(1)
        assert first.entry_count(PLANS) == second.entry_count(PLANS) == 1
        assert _holds(first, 0) and _holds(second, 0)
        assert DerivedCache.stats[PLANS].evictions == 4

    def test_the_process_wide_view_does_not_keep_a_dead_cache(self):
        cache = DerivedCache()
        cache.lookup(PLANS, "k", lambda: 1)
        assert cache in DerivedCache._live
        gone = weakref.ref(cache)
        del cache
        gc.collect()
        assert gone() is None




class TestSegments:
    def test_a_hit_in_probation_promotes_the_entry(self):
        cache = DerivedCache()
        cache.lookup(PLANS, "k", lambda: "v")
        assert _segments(cache) == (["k"], [])
        assert cache.lookup(PLANS, "k", _never) == ("v", True)
        assert _segments(cache) == ([], ["k"])
        for n in range(PROBATION + 1):  # a one-shot burst cannot evict it
            cache.lookup(PLANS, n, lambda n=n: n)
        assert cache.lookup(PLANS, "k", _never) == ("v", True)
        assert DerivedCache.stats[PLANS].hits == 2

    def test_a_warm_up_entry_is_protected_without_counting_a_hit(self):
        cache = DerivedCache()
        with repeat_traffic():
            assert cache.lookup(COMPILED, "warm", lambda: "code") == ("code", False)
        assert _segments(cache, COMPILED) == ([], ["warm"])
        stats = DerivedCache.stats[COMPILED]
        assert (stats.hits, stats.misses) == (0, 1)
        cache.lookup(COMPILED, "after", lambda: "one-shot")  # the scope ended
        assert _segments(cache, COMPILED) == (["after"], ["warm"])

    def test_invalidate_empties_both_segments(self):
        cache = DerivedCache()
        cache.lookup(PLANS, "promoted", lambda: 1)
        cache.lookup(PLANS, "promoted", _never)
        cache.lookup(PLANS, "one-shot", lambda: 2)
        assert _segments(cache) == (["one-shot"], ["promoted"])
        cache.invalidate()
        assert cache.entry_count(PLANS) == 0 and _segments(cache) == ([], [])

    @pytest.mark.parametrize("declared", [False, True])
    def test_a_build_straddling_an_invalidation_is_stored_in_neither(
            self, declared):
        cache = DerivedCache()

        def build_across_a_reload():
            cache.invalidate()
            return "stale"

        with repeat_traffic() if declared else nullcontext():
            assert cache.lookup(PLANS, "k", build_across_a_reload) == \
                ("stale", False)
        assert _segments(cache) == ([], [])

    def test_set_capacity_2_trims_both_segments(self):
        cache = DerivedCache()
        for key in "abc":
            cache.lookup(PLANS, key, lambda key=key: key)
            cache.lookup(PLANS, key, _never)  # promoted
        for key in "xyz":
            cache.lookup(PLANS, key, lambda key=key: key)
        assert _segments(cache) == (list("xyz"), list("abc"))
        DerivedCache.set_capacity(2)
        # protected entries past their share (none at capacity <= PROBATION)
        # go back to probation as its newest, so what repeated is kept longest
        assert _segments(cache) == (list("bc"), [])
        assert DerivedCache.stats[PLANS].evictions == 4

    def test_capacity_bounds_both_segments_together(self):
        DerivedCache.set_capacity(PROBATION + 2)
        cache = DerivedCache()
        for key in "abc":
            cache.lookup(PLANS, key, lambda key=key: key)
            cache.lookup(PLANS, key, _never)
        # protected holds capacity - PROBATION: the oldest promoted entry was
        # demoted to probation, not dropped
        assert _segments(cache) == (["a"], ["b", "c"])
        for n in range(PROBATION):
            cache.lookup(PLANS, n, lambda n=n: n)
        assert cache.entry_count(PLANS) == PROBATION + 2
        assert not _holds(cache, "a")
        assert DerivedCache.stats[PLANS].evictions == 1


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
        assert _holds(other, "k")

    def test_a_build_that_straddles_an_invalidation_is_not_stored(self):
        cache = DerivedCache()

        def build_across_a_reload():
            cache.invalidate()
            return "derived from the replaced data"

        value, hit = cache.lookup(PLANS, "k", build_across_a_reload)
        assert value == "derived from the replaced data" and not hit
        assert not _holds(cache, "k")
        assert cache.lookup(PLANS, "k", lambda: "fresh") == ("fresh", False)
        assert cache.lookup(PLANS, "k", _never) == ("fresh", True)


@pytest.mark.timeout(60)
class TestStress:
    def test_lookups_promotions_invalidations_and_rebounds_from_many_threads(
            self):
        """More threads than cores, a short switch interval: every lookup is
        counted exactly once, neither segment ever exceeds its share of the
        bound, promotions race invalidations, and nothing built before an
        invalidation is served after it."""
        threads, rounds, keys = 16, 400, PROBATION + 16
        small, large = PROBATION + 4, PROBATION + 8
        # the bound the workers assert must hold before the first of them
        # runs, not from the disturber's first ``set_capacity`` on: until
        # then the capacity is what the last test left (512)
        DerivedCache.set_capacity(large)
        caches = [DerivedCache(), DerivedCache()]
        # Eviction and promotion are proved here, on one thread: whether the
        # threaded phase overflows probation depends on how often the
        # disturber empties it first, which is a schedule, not a property.
        for n in range(PROBATION + 1):
            caches[0].lookup(PLANS, ("overflow", n), lambda: 0)
        caches[0].lookup(PLANS, ("overflow", PROBATION), _never)
        stats = DerivedCache.stats[PLANS]
        assert (stats.misses, stats.hits, stats.evictions) == (PROBATION + 1, 1, 1)
        assert _segments(caches[0])[1] == [("overflow", PROBATION)]
        warm_up = stats.hits + stats.misses
        epoch = [0]  # bumped *before* each invalidation
        errors = []
        done = threading.Event()

        def worker(index):
            cache = caches[index % 2]
            try:
                for n in range(rounds):
                    # every fourth lookup is one hot key: a promotion each
                    # time an invalidation dropped it
                    key = "hot" if n % 4 == 0 else (index * 7 + n) % keys
                    seen = epoch[0]
                    built_at, _ = cache.lookup(PLANS, key, lambda: epoch[0])
                    # a value older than the epoch read before the lookup
                    # was built before an invalidation that had finished
                    assert built_at >= seen - 1, (built_at, seen)
                    with DerivedCache._lock:
                        probation, protected = (len(segment) for segment in
                                                _segments(cache))
                        room = min(DerivedCache.capacity, PROBATION)
                        assert probation <= room
                        assert protected <= DerivedCache.capacity - room
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def disturber():
            n = 0
            while not done.is_set():
                n += 1
                DerivedCache.set_capacity(small if n % 2 else large)
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
        assert stats.hits + stats.misses == warm_up + threads * rounds
        assert all(cache.entry_count(PLANS) <= large for cache in caches)
