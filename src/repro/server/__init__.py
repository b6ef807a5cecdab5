"""The admission-controlled async query-serving front door.

This package is the serving layer ROADMAP item 1 calls for: an asyncio
front door (:class:`QueryServer`) over the PR-6 execution-hardening
substrate, with bounded-queue admission control, AIMD adaptive concurrency,
deadline propagation into :class:`~repro.robustness.governor.QueryBudget`,
one fallback ladder for every admitted request (a full queue rejects, it
does not downgrade), and a drain-style lifecycle with health/readiness
probes.

Everything a caller needs is re-exported here::

    from repro.server import QueryServer, QueryResponse

    server = QueryServer(catalog, queries={"Q6": build_query("Q6")},
                         warmup=("Q6",))
    await server.start()
    response = await server.submit("Q6", timeout_seconds=0.5)
    await server.drain()
"""
from .admission import (AdaptiveLimiter, AdmissionController,  # noqa: F401
                        AdmittedRequest)
from .responses import (STATUS_DEADLINE_EXCEEDED, STATUS_FAILED,  # noqa: F401
                        STATUS_OK, STATUS_OVERLOADED, STATUSES,
                        DeadlineExceeded, Overloaded, QueryResponse,
                        Rejection)
from .server import QueryServer, serve_one_shot  # noqa: F401

__all__ = [
    "AdaptiveLimiter", "AdmissionController", "AdmittedRequest",
    "STATUS_OK", "STATUS_OVERLOADED", "STATUS_DEADLINE_EXCEEDED",
    "STATUS_FAILED", "STATUSES",
    "DeadlineExceeded", "Overloaded", "QueryResponse", "Rejection",
    "QueryServer", "serve_one_shot",
]
