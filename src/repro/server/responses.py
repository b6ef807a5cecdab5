"""Typed request outcomes for the query-serving front door.

Every submitted request resolves to exactly one :class:`QueryResponse` —
the front door never raises into a caller and never leaves a future
dangling.  The status taxonomy is deliberately small and closed:

``ok``                 rows returned (possibly on a degraded tier/plan)
``overloaded``         shed at admission: queue full, draining, or stopped
``deadline_exceeded``  the deadline expired in the queue, at dispatch, or
                       the propagated budget tripped mid-execution
``failed``             every tier failed, or a non-deadline budget trip

:class:`Overloaded` and :class:`DeadlineExceeded` are the corresponding
typed rejection exceptions used *inside* the server (admission control and
the dispatch path raise them; :meth:`QueryServer.submit` converts them into
responses).  They are exported so tests and embedding applications can
pattern-match on the rejection type rather than on strings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: the closed status vocabulary of :class:`QueryResponse.status`
STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
STATUS_FAILED = "failed"
STATUSES = (STATUS_OK, STATUS_OVERLOADED, STATUS_DEADLINE_EXCEEDED,
            STATUS_FAILED)


class Rejection(RuntimeError):
    """Base class of the front door's typed rejections."""

    status = STATUS_FAILED

    def __init__(self, reason: str, message: str = "") -> None:
        self.reason = reason
        super().__init__(message or reason)


class Overloaded(Rejection):
    """The request was shed: bounded queue full, server draining/stopped."""

    status = STATUS_OVERLOADED


class DeadlineExceeded(Rejection):
    """The request's deadline expired before (or during) execution."""

    status = STATUS_DEADLINE_EXCEEDED


@dataclass(frozen=True)
class QueryResponse:
    """The outcome of one submitted request.

    ``queue_seconds`` is admission→dispatch wait; ``execute_seconds`` covers
    the executor call (all ladder attempts).  ``attempts`` counts failed
    ladder attempts before the answer, so ``attempts > 0`` marks a
    degraded-path response.  ``tier_policy`` is always ``"full"``: every
    admitted request runs on the executor's configured ladder, and nothing
    sets the field.  It stays because the serving benchmark copies it into
    its ``server.downgrade_count`` metric, which therefore reads 0.
    """

    query: str
    status: str
    rows: Optional[List[Dict[str, Any]]] = None
    tier: str = ""
    plan_mode: str = ""
    tier_policy: str = "full"
    reason: str = ""
    error_type: str = ""
    message: str = ""
    attempts: int = 0
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown response status: {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def shed(self) -> bool:
        """True when the front door refused to execute the request."""
        return self.status in (STATUS_OVERLOADED, STATUS_DEADLINE_EXCEEDED)

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "status": self.status,
            "row_count": None if self.rows is None else len(self.rows),
            "tier": self.tier,
            "plan_mode": self.plan_mode,
            "tier_policy": self.tier_policy,
            "reason": self.reason,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "queue_seconds": self.queue_seconds,
            "execute_seconds": self.execute_seconds,
            "detail": dict(self.detail),
        }
