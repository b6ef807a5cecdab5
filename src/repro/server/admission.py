"""Admission control for the serving front door.

Two cooperating pieces, all synchronous and individually testable:

* :class:`AdaptiveLimiter` — an AIMD concurrency limiter.  Successes probe
  capacity *up* additively (classic congestion avoidance: one extra slot per
  ``limit`` successes); timeouts and deadline misses back *off*
  multiplicatively.  The serving loop dispatches at most ``limit`` queries
  concurrently, so sustained overload shrinks the window instead of piling
  work onto an already-saturated executor.
* :class:`AdmissionController` — the bounded priority queue.  ``offer``
  either enqueues or raises a typed rejection
  (:class:`~repro.server.responses.Overloaded` /
  :class:`~repro.server.responses.DeadlineExceeded`) — there is no
  unbounded queueing and no silent drop.  Entries pop lowest
  ``(priority, seq)`` first, so equal-priority requests stay FIFO.  An
  admitted request runs on the executor's configured ladder whatever the
  occupancy; the queue bound is the only answer to pressure.

All state is lock-guarded; the event loop and stats readers may touch it
concurrently.
"""
from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from .responses import DeadlineExceeded, Overloaded


class AdaptiveLimiter:
    """AIMD concurrency window: probe up on success, back off on timeout."""

    def __init__(self, initial: int = 8, min_limit: int = 1,
                 max_limit: int = 64, increase: float = 1.0,
                 decrease: float = 0.5) -> None:
        if not (1 <= min_limit <= initial <= max_limit):
            raise ValueError("need 1 <= min_limit <= initial <= max_limit")
        if increase <= 0:
            raise ValueError("increase must be positive")
        if not (0.0 < decrease < 1.0):
            raise ValueError("decrease must be in (0, 1)")
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.decrease = decrease
        self._limit = float(initial)
        self._lock = threading.Lock()
        self.successes = 0
        self.overloads = 0

    @property
    def limit(self) -> int:
        """The current integer concurrency window (>= ``min_limit``)."""
        with self._lock:
            return max(self.min_limit, int(self._limit))

    def on_success(self) -> None:
        """Additive increase: ~one extra slot per ``limit`` successes."""
        with self._lock:
            self.successes += 1
            self._limit = min(float(self.max_limit),
                              self._limit + self.increase / max(1.0, self._limit))

    def on_overload(self) -> None:
        """Multiplicative decrease on a timeout / deadline miss."""
        with self._lock:
            self.overloads += 1
            self._limit = max(float(self.min_limit),
                              self._limit * self.decrease)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "limit": max(self.min_limit, int(self._limit)),
                "raw_limit": self._limit,
                "min_limit": self.min_limit,
                "max_limit": self.max_limit,
                "successes": self.successes,
                "overloads": self.overloads,
            }


_REQUEST_SEQ = itertools.count(1)


@dataclass
class AdmittedRequest:
    """One queued request: plan + deadline + priority + its pending future."""

    name: str
    plan: Any
    priority: int
    #: absolute monotonic deadline, or ``None`` for no deadline
    deadline: Optional[float]
    enqueued_at: float
    #: resolved by the server with exactly one QueryResponse
    future: Any = None
    seq: int = field(default_factory=lambda: next(_REQUEST_SEQ))

    def remaining(self, now: float) -> Optional[float]:
        """Seconds of deadline left at ``now`` (``None`` = unlimited)."""
        if self.deadline is None:
            return None
        return self.deadline - now

    def expired(self, now: float) -> bool:
        remaining = self.remaining(now)
        return remaining is not None and remaining <= 0.0


class AdmissionController:
    """Bounded priority queue with typed rejection.

    ``offer`` never blocks and never queues beyond ``max_depth``; the only
    outcomes are acceptance, :class:`Overloaded` (queue full / not
    accepting) or :class:`DeadlineExceeded` (dead on arrival).
    """

    def __init__(self, max_depth: int = 64,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._clock = clock
        self._lock = threading.Lock()
        self._heap: List[Tuple[int, int, AdmittedRequest]] = []
        self._accepting = True
        self._reject_reason = "draining"
        # counters for the stats endpoint
        self.accepted = 0
        self.rejected_queue_full = 0
        self.rejected_not_accepting = 0
        self.rejected_dead_on_arrival = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    def stop_accepting(self, reason: str = "draining") -> None:
        """Flip admission off (drain); queued requests stay queued."""
        with self._lock:
            self._accepting = False
            self._reject_reason = reason

    def offer(self, name: str, plan: Any, *, priority: int = 0,
              deadline: Optional[float] = None) -> AdmittedRequest:
        """Admit or reject; returns the queued request on admission."""
        now = self._clock()
        with self._lock:
            if not self._accepting:
                self.rejected_not_accepting += 1
                raise Overloaded(self._reject_reason,
                                 f"{name}: server is not accepting requests")
            if deadline is not None and deadline - now <= 0.0:
                self.rejected_dead_on_arrival += 1
                raise DeadlineExceeded(
                    "dead_on_arrival",
                    f"{name}: deadline expired before admission")
            if len(self._heap) >= self.max_depth:
                self.rejected_queue_full += 1
                raise Overloaded(
                    "queue_full",
                    f"{name}: admission queue at capacity ({self.max_depth})")
            request = AdmittedRequest(name=name, plan=plan, priority=priority,
                                      deadline=deadline, enqueued_at=now)
            heapq.heappush(self._heap, (priority, request.seq, request))
            self.accepted += 1
            return request

    def pop(self) -> Optional[AdmittedRequest]:
        """The highest-priority queued request, or ``None`` when empty."""
        with self._lock:
            if not self._heap:
                return None
            return heapq.heappop(self._heap)[2]

    def drain_queue(self) -> List[AdmittedRequest]:
        """Remove and return everything still queued (shutdown path)."""
        with self._lock:
            requests = [entry[2] for entry in self._heap]
            self._heap.clear()
            return requests

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._heap),
                "max_depth": self.max_depth,
                "occupancy": len(self._heap) / self.max_depth,
                "accepting": self._accepting,
                "accepted": self.accepted,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_not_accepting": self.rejected_not_accepting,
                "rejected_dead_on_arrival": self.rejected_dead_on_arrival,
            }
