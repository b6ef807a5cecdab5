"""Parallel-safety report: classify every depth-0 loop of every TPC-H query.

Usage::

    python -m repro.analysis.dataflow report [--sf 0.001] [--seed 20160626]
        [--configs dblab-5,tpch-compliant] (default: all six) [--queries Q1,Q6,...]
        [--out BENCH_parallel_safety.json] [--no-planner]

Every (config, query) pair is lowered (``QueryCompiler.lower``) with the full
verifier battery on; the compiler stamps each depth-0 loop of the final
program with its parallel-safety verdict and re-proves the stamps
(:func:`repro.analysis.dataflow.checks.check_stamps`).  The report prints a
per-query table — loop label, op, verdict, reason — and writes a JSON
artifact suitable for CI trend tracking.  Exit status is 0 only when every
pair lowers, verifies and leaves no loop unclassified.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from ...stack.configs import CONFIG_NAMES

DEFAULT_CONFIGS = ",".join(CONFIG_NAMES)


def build_report(scale_factor: float, seed: int, config_names: List[str],
                 query_names: List[str], planner: bool = True) -> Dict[str, Any]:
    """Lower each (config, query) pair with verification and collect verdicts."""
    from ...codegen.compiler import QueryCompiler
    from ...stack.configs import build_config
    from ...tpch.dbgen import generate_catalog
    from ...tpch.queries import build_query

    catalog = generate_catalog(scale_factor=scale_factor, seed=seed)
    report: Dict[str, Any] = {
        "scale_factor": scale_factor,
        "seed": seed,
        "planner": planner,
        "configs": {},
    }
    total = parallel = failures = 0
    for config_name in config_names:
        config = build_config(config_name, planner=planner)
        compiler = QueryCompiler(config.stack, config.flags, verify=True)
        per_query: Dict[str, Any] = {}
        for query_name in query_names:
            try:
                lowered = compiler.lower(build_query(query_name), catalog,
                                         query_name=query_name)
            except Exception as exc:  # noqa: BLE001 - report, keep going
                failures += 1
                per_query[query_name] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            loops = [{
                "loop": c.loop_hint,
                "op": c.op,
                "verdict": "parallelizable" if c.parallelizable else "sequential",
                "reason": c.reason,
                "merges": [list(m) for m in c.merges],
            } for c in lowered.loop_safety]
            n_parallel = sum(1 for loop in loops
                             if loop["verdict"] == "parallelizable")
            total += len(loops)
            parallel += n_parallel
            per_query[query_name] = {
                "loops": loops,
                "total": len(loops),
                "parallelizable": n_parallel,
            }
        report["configs"][config_name] = per_query
    report["summary"] = {
        "total_loops": total,
        "parallelizable": parallel,
        "sequential": total - parallel,
        "failures": failures,
    }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.dataflow report",
        description="Report parallel-safety verdicts for compiled TPC-H loops.")
    parser.add_argument("--sf", type=float, default=0.001,
                        help="TPC-H scale factor (default 0.001)")
    parser.add_argument("--seed", type=int, default=20160626,
                        help="data-generator seed (default 20160626)")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help=f"comma-separated stack configs "
                             f"(default {DEFAULT_CONFIGS})")
    parser.add_argument("--queries", default="",
                        help="comma-separated query names (default: all 22)")
    parser.add_argument("--out", default="",
                        help="write the JSON artifact to this path")
    parser.add_argument("--no-planner", action="store_true",
                        help="compile without the QPlan logical optimizer")
    args = parser.parse_args(argv)

    from ...tpch.queries import QUERY_NAMES

    queries = [q.strip() for q in args.queries.split(",") if q.strip()] \
        or list(QUERY_NAMES)
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [q for q in queries if q not in QUERY_NAMES]
    if unknown:
        parser.error(f"unknown queries: {unknown}; known: {QUERY_NAMES}")

    started = time.perf_counter()
    report = build_report(args.sf, args.seed, configs, queries,
                          planner=not args.no_planner)

    for config_name, per_query in report["configs"].items():
        for query_name, entry in per_query.items():
            if "error" in entry:
                print(f"FAIL  {config_name:16s} {query_name:4s} {entry['error']}")
                continue
            verdict = f"{entry['parallelizable']}/{entry['total']} parallelizable"
            print(f"ok    {config_name:16s} {query_name:4s} {verdict}")
            for loop in entry["loops"]:
                mark = "P" if loop["verdict"] == "parallelizable" else "S"
                print(f"        [{mark}] {loop['loop']:24s} {loop['op']:12s} "
                      f"{loop['reason']}")

    summary = report["summary"]
    elapsed = time.perf_counter() - started
    print(f"{summary['total_loops']} loops classified: "
          f"{summary['parallelizable']} parallelizable, "
          f"{summary['sequential']} sequential; "
          f"{summary['failures']} failures in {elapsed:.1f}s "
          f"(sf={args.sf}, configs={','.join(configs)})")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
