"""Admission control for the serving front door.

:class:`AdmissionController` is a bounded FIFO queue.  ``offer`` either
enqueues or raises a typed rejection
(:class:`~repro.server.responses.Overloaded` /
:class:`~repro.server.responses.DeadlineExceeded`) — there is no unbounded
queueing and no silent drop.  Requests pop in arrival order.  An admitted
request runs on the executor's configured ladder whatever the occupancy;
the queue bound is the only answer to pressure.

All state is lock-guarded; the event loop and stats readers may touch it
concurrently.
"""
from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional

from .responses import DeadlineExceeded, Overloaded


@dataclass
class AdmittedRequest:
    """One queued request: plan + deadline + its pending future."""

    name: str
    plan: Any
    #: absolute monotonic deadline, or ``None`` for no deadline
    deadline: Optional[float]
    enqueued_at: float
    #: resolved by the server with exactly one QueryResponse
    future: Any = None

    def remaining(self, now: float) -> Optional[float]:
        """Seconds of deadline left at ``now`` (``None`` = unlimited)."""
        if self.deadline is None:
            return None
        return self.deadline - now

    def expired(self, now: float) -> bool:
        remaining = self.remaining(now)
        return remaining is not None and remaining <= 0.0


class AdmissionController:
    """Bounded FIFO queue with typed rejection.

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
        self._queue: Deque[AdmittedRequest] = deque()
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
            return len(self._queue)

    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._accepting

    def stop_accepting(self, reason: str = "draining") -> None:
        """Flip admission off (drain); queued requests stay queued."""
        with self._lock:
            self._accepting = False
            self._reject_reason = reason

    def offer(self, name: str, plan: Any, *,
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
            if len(self._queue) >= self.max_depth:
                self.rejected_queue_full += 1
                raise Overloaded(
                    "queue_full",
                    f"{name}: admission queue at capacity ({self.max_depth})")
            request = AdmittedRequest(name=name, plan=plan,
                                      deadline=deadline, enqueued_at=now)
            self._queue.append(request)
            self.accepted += 1
            return request

    def pop(self) -> Optional[AdmittedRequest]:
        """The oldest queued request, or ``None`` when empty."""
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def drain_queue(self) -> List[AdmittedRequest]:
        """Remove and return everything still queued (shutdown path)."""
        with self._lock:
            requests = list(self._queue)
            self._queue.clear()
            return requests

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "depth": len(self._queue),
                "max_depth": self.max_depth,
                "occupancy": len(self._queue) / self.max_depth,
                "accepting": self._accepting,
                "accepted": self.accepted,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_not_accepting": self.rejected_not_accepting,
                "rejected_dead_on_arrival": self.rejected_dead_on_arrival,
            }
