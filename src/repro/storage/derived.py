"""The one cache of artefacts derived from a catalog's loaded data.

Planned trees (costed on the catalog's statistics) and compiled queries
(which bake in statistics-derived constants and close over load-time access
structures) are only valid for the data they were derived from.  Every such
artefact lives in the :class:`DerivedCache` of the catalog's
:class:`~repro.storage.access.AccessLayer`, and
:meth:`~repro.storage.access.AccessLayer.invalidate_table` empties it in the
critical section that bumps the generation counter — so "is this still valid
for the loaded data?" is settled once, by construction: what is in the cache
is valid, and no reader of the cache compares generation stamps.

Each *kind* of entry (:data:`PLANS`, :data:`COMPILED`) is a segmented LRU
bounded by the one process-wide :attr:`DerivedCache.capacity`.  A plan
specialized to its literals is often built once and never asked for again, so
an entry earns residence by repeating: a build lands in a small *probation*
segment (:data:`PROBATION` entries), and only a hit moves it to the
*protected* one — or a build declared as repeat traffic
(:func:`repeat_traffic`, the server's warm-up).  A burst of one-shot plans
therefore cycles through probation and never evicts what repeats.
"""
from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (Any, Callable, ClassVar, DefaultDict, Hashable, Iterator,
                    Tuple)

from ..concurrency import guarded_by

#: the kinds of entry the layers above keep here: planned trees
#: (:class:`repro.planner.Planner`) and compiled queries
#: (:class:`repro.codegen.compiler.QueryCompiler`)
PLANS = "plans"
COMPILED = "compiled"

#: most never-hit entries one kind of one cache keeps (fewer if the capacity
#: is smaller).  After a reload ``reload_mix`` rebuilds all 22 TPC-H shapes
#: before the first repeats, so 22 must fit; no workload repeats a plan more
#: than 22 distinct plans after its first use.
PROBATION = 32

_REPEAT: ContextVar[bool] = ContextVar("repro_repeat_traffic", default=False)


@contextmanager
def repeat_traffic() -> Iterator[None]:
    """Declare the enclosed lookups repeat traffic: what they build goes
    straight to the protected segment (no hit is counted for it)."""
    token = _REPEAT.set(True)
    try:
        yield
    finally:
        _REPEAT.reset(token)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one kind of entry, process-wide:
    lookups served, lookups that had to build, entries the bound pushed out."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_Segment = DefaultDict[str, "OrderedDict[Hashable, Any]"]


class DerivedCache:
    """Segmented LRUs, one per kind of entry, for one catalog's derived state.

    A miss builds into the kind's probation segment, a hit there promotes the
    entry to the protected segment, and the two together hold at most
    :attr:`capacity` entries: probation at most ``min(capacity,``
    :data:`PROBATION` ``)``, protected the rest.  Protected entries past
    their share are demoted to probation; entries dropped from probation
    count as evictions.

    Every instance shares one lock: the bound, the counters and the set of
    non-empty caches are process-wide, and every operation under the lock is
    a dictionary operation.  :meth:`lookup` builds a missing value *outside*
    the lock; two threads missing on one key may both build, but a value
    whose build overlapped an :meth:`invalidate` is handed to its caller and
    never stored, so a slow build racing a table re-registration cannot
    resurrect state derived from the replaced data.
    """

    _lock: ClassVar[Any] = threading.RLock()
    #: maximum live entries per kind and cache; change via :meth:`set_capacity`
    # concurrency: guarded-by(_lock)
    capacity: ClassVar[int] = 512
    #: kind -> counters, summed over every catalog
    # concurrency: guarded-by(_lock)
    stats: ClassVar[DefaultDict[str, CacheStats]] = defaultdict(CacheStats)
    #: the caches that may hold entries (a cache joins on its first insert)
    # concurrency: guarded-by(_lock)
    _live: ClassVar["weakref.WeakSet[DerivedCache]"] = weakref.WeakSet()

    def __init__(self) -> None:
        #: kind -> entries not hit since they were built, oldest first
        # concurrency: guarded-by(_lock)
        self._probation: _Segment = defaultdict(OrderedDict)
        #: kind -> entries hit at least once (or warmed), least recent first
        # concurrency: guarded-by(_lock)
        self._protected: _Segment = defaultdict(OrderedDict)
        #: bumped by every invalidation; a build that straddles one is not stored
        # concurrency: guarded-by(_lock)
        self._invalidations = 0

    def lookup(self, kind: str, key: Hashable,
               build: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(value, hit)``: the cached value under ``key``, else ``build()``."""
        with self._lock:
            protected, probation = self._protected[kind], self._probation[kind]
            if key in protected:
                protected.move_to_end(key)
                self.stats[kind].hits += 1
                return protected[key], True
            if key in probation:
                value = protected[key] = probation.pop(key)
                self._trim(kind)
                self.stats[kind].hits += 1
                return value, True
            started_at = self._invalidations
        value = build()
        with self._lock:
            self.stats[kind].misses += 1
            if started_at == self._invalidations:
                segment = self._protected if _REPEAT.get() else self._probation
                segment[kind][key] = value
                self._live.add(self)
                self._trim(kind)
        return value, False

    def entry_count(self, kind: str) -> int:
        with self._lock:
            return len(self._protected[kind]) + len(self._probation[kind])

    def invalidate(self) -> None:
        """Drop everything: the data every entry was derived from changed.
        (Not counted as evictions — those are what the bound pushed out.)"""
        with self._lock:
            self._invalidations += 1
            self._probation.clear()
            self._protected.clear()

    @guarded_by("_lock")
    def _trim(self, kind: str) -> None:
        """Demote protected ``kind`` entries past their share to probation,
        then evict probation's oldest down to its bound."""
        protected, probation = self._protected[kind], self._probation[kind]
        room = min(self.capacity, PROBATION)
        while len(protected) > self.capacity - room:
            key, value = protected.popitem(last=False)
            probation[key] = value
        while len(probation) > room:
            probation.popitem(last=False)
            self.stats[kind].evictions += 1

    # ------------------------------------------------------------------
    # Process-wide operations (every catalog's cache)
    # ------------------------------------------------------------------
    @classmethod
    def set_capacity(cls, capacity: int) -> None:
        """Re-bound every kind of every cache, evicting LRU-first if needed."""
        with cls._lock:
            cls.capacity = capacity
            for cache in list(cls._live):
                for kind in cache._probation.keys() | cache._protected.keys():
                    cache._trim(kind)

    @classmethod
    def clear_all(cls) -> None:
        """Empty every cache and zero the counters (tests, benchmarks)."""
        with cls._lock:
            for cache in list(cls._live):
                cache.invalidate()
            for stats in cls.stats.values():
                stats.reset()
