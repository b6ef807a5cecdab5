"""Structured incident log for the execution-hardening layer.

Every degradation the :class:`~repro.robustness.fallback.HardenedExecutor`
performs — a tier falling over, a plan losing its access paths, a transient
retry, a circuit breaker opening — is recorded as one :class:`Incident`.
The query-serving front door (:mod:`repro.server`) records every
admission-time refusal: load-shed rejections and requests dropped because
their deadline expired in the queue.

The log is an in-process ring buffer (bounded, oldest-first eviction) so a
long-lived serving process cannot grow it without limit.  Per-category
counters cover *every* report ever made — :meth:`IncidentLog.snapshot`
exposes them so a stats endpoint or a chaos suite can assert on incident
counts without draining (or being limited by) the ring.  All operations are
thread-safe: the serving layer reports from thread-pool workers and the
asyncio event loop concurrently.

A process-wide default instance, :data:`DEFAULT_INCIDENTS`, receives reports
from call sites that have no executor-scoped log in hand.
"""
from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional

_SEQ = itertools.count(1)

#: Incident categories used across the subsystem.  Kept as plain strings so
#: the log stays trivially serialisable; this tuple is the schema reference.
CATEGORIES = (
    "tier_failure",        # an engine tier raised and the ladder moved on
    "plan_degraded",       # access-path / optimized plan replaced by a safer one
    "transient_retry",     # transient fault, retried with backoff
    "circuit_open",        # breaker disabled a (fingerprint, tier) pair
    "circuit_close",       # breaker re-enabled after cooldown probe succeeded
    "generation_skew",     # access-layer generation moved between plan and run
    "budget_trip",         # governor raised BudgetExceeded
    "admission_reject",    # front door shed a request (queue full / draining)
    "deadline_expired",    # request deadline expired before execution started
)


@dataclass(frozen=True)
class Incident:
    """One structured incident record.

    Schema (all fields always present; ``detail`` is free-form context):

    ``seq``       monotonically increasing id within the process
    ``timestamp`` ``time.time()`` at report time
    ``category``  one of :data:`CATEGORIES`
    ``query``     query name if known (e.g. ``"Q6"``), else ``""``
    ``tier``      engine tier involved (``"compiled"``/``"vectorized"``/...)
    ``cause``     exception class name or short machine-readable cause
    ``message``   human-readable one-liner
    ``elapsed_seconds`` time spent in the failing attempt (0.0 if n/a)
    ``detail``    extra key/value context (plan mode, attempt number, ...)
    """

    seq: int
    timestamp: float
    category: str
    query: str
    tier: str
    cause: str
    message: str
    elapsed_seconds: float = 0.0
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "category": self.category,
            "query": self.query,
            "tier": self.tier,
            "cause": self.cause,
            "message": self.message,
            "elapsed_seconds": self.elapsed_seconds,
            "detail": dict(self.detail),
        }


class IncidentLog:
    """Bounded, in-order, thread-safe incident sink with query helpers.

    The ring buffer holds the most recent ``capacity`` incidents; the
    per-category counters (:meth:`snapshot`) are never evicted, so totals
    survive ring wrap-around.
    """

    def __init__(self, capacity: int = 1024,
                 clock: Callable[[], float] = time.time):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: Deque[Incident] = deque(maxlen=capacity)
        self._clock = clock
        self._lock = threading.RLock()
        self._counters: Dict[str, int] = {}
        self._total = 0

    def report(self, category: str, *, query: str = "", tier: str = "",
               cause: str = "", message: str = "",
               elapsed_seconds: float = 0.0,
               **detail) -> Incident:
        if category not in CATEGORIES:
            raise ValueError(f"unknown incident category: {category!r}")
        incident = Incident(seq=next(_SEQ), timestamp=self._clock(),
                            category=category, query=query, tier=tier,
                            cause=cause, message=message,
                            elapsed_seconds=elapsed_seconds, detail=detail)
        with self._lock:
            self._records.append(incident)
            self._counters[category] = self._counters.get(category, 0) + 1
            self._total += 1
        return incident

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[Incident]:
        with self._lock:
            return iter(tuple(self._records))

    def records(self, category: Optional[str] = None,
                query: Optional[str] = None) -> List[Incident]:
        with self._lock:
            snapshot = tuple(self._records)
        out = []
        for record in snapshot:
            if category is not None and record.category != category:
                continue
            if query is not None and record.query != query:
                continue
            out.append(record)
        return out

    def last(self, category: Optional[str] = None) -> Optional[Incident]:
        matches = self.records(category)
        return matches[-1] if matches else None

    def count(self, category: str) -> int:
        """Total reports ever made in ``category`` (survives ring eviction)."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown incident category: {category!r}")
        with self._lock:
            return self._counters.get(category, 0)

    def snapshot(self) -> dict:
        """Counters without draining the ring: totals per category (only
        categories actually reported), ring occupancy, and how many records
        have been evicted."""
        with self._lock:
            by_category = {category: self._counters[category]
                           for category in CATEGORIES
                           if self._counters.get(category)}
            buffered = len(self._records)
            total = self._total
        return {
            "total_reported": total,
            "buffered": buffered,
            "evicted": total - buffered,
            "capacity": self.capacity,
            "by_category": by_category,
        }

    def to_json(self, include_records: bool = False,
                indent: Optional[int] = None) -> str:
        """The :meth:`snapshot` (optionally plus the buffered records) as a
        JSON document for stats endpoints and benchmark artifacts."""
        payload = self.snapshot()
        if include_records:
            payload["records"] = [record.as_dict() for record in self.records()]
        return json.dumps(payload, indent=indent, default=repr)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._counters.clear()
            self._total = 0


#: Process-wide sink for call sites without an executor-scoped log.  Tests may
#: ``clear()`` it between cases.
DEFAULT_INCIDENTS = IncidentLog()
