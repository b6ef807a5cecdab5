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

Each *kind* of entry (:data:`PLANS`, :data:`COMPILED`) is its own LRU, bounded
by the one process-wide :attr:`DerivedCache.capacity`.
"""
from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, DefaultDict, Hashable, Tuple

from ..concurrency import guarded_by

#: the kinds of entry the layers above keep here: planned trees
#: (:class:`repro.planner.Planner`) and compiled queries
#: (:class:`repro.codegen.compiler.QueryCompiler`)
PLANS = "plans"
COMPILED = "compiled"


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


class DerivedCache:
    """Bounded LRUs, one per kind of entry, for one catalog's derived state.

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
        # concurrency: guarded-by(_lock)
        self._entries: DefaultDict[str, "OrderedDict[Hashable, Any]"] = \
            defaultdict(OrderedDict)
        #: bumped by every invalidation; a build that straddles one is not stored
        # concurrency: guarded-by(_lock)
        self._invalidations = 0

    def lookup(self, kind: str, key: Hashable,
               build: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(value, hit)``: the cached value under ``key``, else ``build()``."""
        with self._lock:
            entries = self._entries[kind]
            if key in entries:
                entries.move_to_end(key)
                self.stats[kind].hits += 1
                return entries[key], True
            started_at = self._invalidations
        value = build()
        with self._lock:
            self.stats[kind].misses += 1
            if started_at == self._invalidations:
                self._entries[kind][key] = value
                self._live.add(self)
                self._trim(kind)
        return value, False

    def contains(self, kind: str, key: Hashable) -> bool:
        """Whether ``key`` is cached now (no recency bump, no counters)."""
        with self._lock:
            return key in self._entries[kind]

    def entry_count(self, kind: str) -> int:
        with self._lock:
            return len(self._entries[kind])

    def invalidate(self) -> None:
        """Drop everything: the data every entry was derived from changed.
        (Not counted as evictions — those are what the bound pushed out.)"""
        with self._lock:
            self._invalidations += 1
            self._entries.clear()

    @guarded_by("_lock")
    def _trim(self, kind: str) -> None:
        """Evict least-recently-used ``kind`` entries down to the bound."""
        entries = self._entries[kind]
        while len(entries) > self.capacity:
            entries.popitem(last=False)
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
                for kind in cache._entries:
                    cache._trim(kind)

    @classmethod
    def total(cls, kind: str) -> int:
        """Live ``kind`` entries over every catalog."""
        with cls._lock:
            return sum(len(cache._entries[kind]) for cache in list(cls._live))

    @classmethod
    def clear_all(cls) -> None:
        """Empty every cache and zero the counters (tests, benchmarks)."""
        with cls._lock:
            for cache in list(cls._live):
                cache.invalidate()
            for stats in cls.stats.values():
                stats.reset()
