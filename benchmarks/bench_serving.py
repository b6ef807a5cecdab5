"""Serving benchmark: throughput and tail latency under ramped concurrency.

A small standalone driver (no pytest) used by CI and by hand::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --queries Q1 Q6 Q12 Q14 --levels 1 2 4 8 \
        --requests-per-level 16 --out BENCH_serving.json

It starts one admission-controlled :class:`repro.server.QueryServer` over a
TPC-H catalog (warm-up pre-compiles every benchmarked query), then ramps
offered concurrency through ``--levels``: at each level it fires
``--requests-per-level`` submissions in concurrent waves of ``level`` and
records per-request wall latency and the typed outcome.  Per level it
reports queries-per-second, p50/p95/p99 latency over completed requests,
and the shed counts — the measured shape of the front door's response to
pressure (AIMD window, queue rejections, deadline drops) as load passes
capacity.  The final JSON also carries the server's own accounting (queue
counters, limiter state, incident snapshot), so the artifact reconciles:
every submitted request appears exactly once in ``responses_by_status``.

``--timeout`` attaches a per-request deadline (default: none) to exercise
deadline propagation under load; ``--max-queue-depth`` bounds admission.
"""
from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1,
                int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


async def _run_level(server, names, level):
    """Fire len(names) requests in concurrent waves of ``level``."""
    latencies_ok = []
    statuses = {}
    started = time.perf_counter()
    for wave_start in range(0, len(names), level):
        wave = names[wave_start:wave_start + level]

        async def timed(name):
            begin = time.perf_counter()
            response = await server.submit(name)
            return response, time.perf_counter() - begin

        for response, latency in await asyncio.gather(
                *[timed(name) for name in wave]):
            statuses[response.status] = statuses.get(response.status, 0) + 1
            if response.ok:
                latencies_ok.append(latency)
    wall = time.perf_counter() - started
    latencies_ok.sort()
    completed = statuses.get("ok", 0)
    return {
        "level": level,
        "requests": len(names),
        "wall_seconds": wall,
        "qps": completed / wall if wall > 0 else None,
        "p50_ms": (_percentile(latencies_ok, 0.50) or 0.0) * 1000.0
        if latencies_ok else None,
        "p95_ms": (_percentile(latencies_ok, 0.95) or 0.0) * 1000.0
        if latencies_ok else None,
        "p99_ms": (_percentile(latencies_ok, 0.99) or 0.0) * 1000.0
        if latencies_ok else None,
        "statuses": statuses,
        "shed": sum(count for status, count in statuses.items()
                    if status in ("overloaded", "deadline_exceeded")),
    }


async def _bench(args):
    from repro.robustness.governor import QueryBudget
    from repro.server import QueryServer
    from repro.tpch.dbgen import generate_catalog
    from repro.tpch.queries import build_query

    catalog = generate_catalog(scale_factor=args.scale_factor, seed=args.seed)
    registry = {name: build_query(name) for name in args.queries}
    server = QueryServer(
        catalog, queries=registry, warmup=tuple(args.queries),
        max_queue_depth=args.max_queue_depth,
        initial_concurrency=args.initial_concurrency,
        max_concurrency=args.max_concurrency,
        base_budget=QueryBudget(check_interval=64),
        default_timeout_seconds=args.timeout)
    await server.start()
    levels = []
    try:
        names = [args.queries[n % len(args.queries)]
                 for n in range(args.requests_per_level)]
        for level in args.levels:
            result = await _run_level(server, names, level)
            levels.append(result)
            p99 = result["p99_ms"]
            print(f"level={level:3d} qps={result['qps'] or 0.0:8.1f} "
                  f"p50={result['p50_ms'] or 0.0:7.2f}ms "
                  f"p99={p99 or 0.0:7.2f}ms shed={result['shed']}")
    finally:
        await server.drain()
    return server, levels


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", nargs="+",
                        default=["Q1", "Q6", "Q12", "Q14"],
                        help="TPC-H query names (default: Q1 Q6 Q12 Q14)")
    parser.add_argument("--levels", nargs="+", type=int, default=[1, 2, 4, 8],
                        help="offered-concurrency ramp (default: 1 2 4 8)")
    parser.add_argument("--requests-per-level", type=int, default=16,
                        help="submissions measured at each level (default: 16)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline in seconds (default: none)")
    parser.add_argument("--max-queue-depth", type=int, default=64)
    parser.add_argument("--initial-concurrency", type=int, default=4)
    parser.add_argument("--max-concurrency", type=int, default=16)
    parser.add_argument("--scale-factor", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SF", "0.01")),
                        help="TPC-H scale factor (default: REPRO_BENCH_SF or 0.01)")
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--out", default="BENCH_serving.json",
                        help="output JSON path (default: BENCH_serving.json)")
    args = parser.parse_args(argv)

    print(f"queries={','.join(args.queries)} sf={args.scale_factor} "
          f"levels={args.levels} requests/level={args.requests_per_level} "
          f"timeout={args.timeout}")
    server, levels = asyncio.run(_bench(args))

    stats = server.stats()
    submitted = len(args.levels) * args.requests_per_level
    counted = sum(stats["responses_by_status"].values())
    if counted != submitted:
        print(f"accounting mismatch: {submitted} submitted but "
              f"{counted} responses counted", file=sys.stderr)
        return 1

    payload = {
        "meta": {"queries": args.queries, "levels": args.levels,
                 "requests_per_level": args.requests_per_level,
                 "timeout_seconds": args.timeout,
                 "scale_factor": args.scale_factor, "seed": args.seed,
                 "max_queue_depth": args.max_queue_depth,
                 "initial_concurrency": args.initial_concurrency,
                 "max_concurrency": args.max_concurrency},
        "levels": levels,
        "server": {
            "queue": stats["queue"],
            "limiter": stats["limiter"],
            "responses_by_status": stats["responses_by_status"],
            "warmup_compile_seconds": stats["warmup_compile_seconds"],
            "incidents": stats["incidents"],
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
