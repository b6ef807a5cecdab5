"""CI driver: verify every TPC-H query under the compiled configurations.

Usage::

    python -m repro.analysis.verify [--sf 0.001] [--seed 20160626]
        [--configs dblab-5,tpch-compliant]   (default: all six)
        [--queries Q1,Q6,...]

For each (config, query) pair the full compilation runs with the static
verifier enabled: every optimization pass is audited for effect-system
legality, every intermediate program is scope/type/vocabulary-checked
against the catalog schema, and the generated Python is linted before
``exec``.  The compiled query is also executed once so a verification
pass never reports green on a query that cannot run.  Exit status is 0
only when every pair verifies.

Verification includes the fixpoint confirmation (every optimization run once
more on each settled program), so the sweep is also what holds the passes'
``enables`` declarations.  Per configuration it prints how the worklist went
— pass ``runs / changed / re-queued``, summed over the queries — and then
the same counts as one ``fixpoint-runs {json}`` line (what CI keeps as
``BENCH_fixpoint_runs.json``): they depend on the source alone and repeat
exactly on any machine.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..stack.configs import CONFIG_NAMES

DEFAULT_CONFIGS = ",".join(CONFIG_NAMES)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.verify",
        description="Statically verify compiled TPC-H queries.")
    parser.add_argument("--sf", type=float, default=0.001,
                        help="TPC-H scale factor (default 0.001)")
    parser.add_argument("--seed", type=int, default=20160626,
                        help="data-generator seed (default 20160626)")
    parser.add_argument("--configs", default=DEFAULT_CONFIGS,
                        help=f"comma-separated stack configs "
                             f"(default {DEFAULT_CONFIGS})")
    parser.add_argument("--queries", default="",
                        help="comma-separated query names (default: all 22)")
    parser.add_argument("--no-run", action="store_true",
                        help="skip executing each verified query once")
    args = parser.parse_args(argv)

    from ..codegen.compiler import QueryCompiler
    from ..stack.configs import build_config
    from ..tpch.dbgen import generate_catalog
    from ..tpch.queries import QUERY_NAMES, build_query
    from .errors import VerificationError

    queries = [q.strip() for q in args.queries.split(",") if q.strip()] \
        or list(QUERY_NAMES)
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    unknown = [q for q in queries if q not in QUERY_NAMES]
    if unknown:
        parser.error(f"unknown queries: {unknown}; known: {QUERY_NAMES}")

    catalog = generate_catalog(scale_factor=args.sf, seed=args.seed)
    failures = 0
    fixpoint_counts = {}
    started = time.perf_counter()
    for config_name in configs:
        config = build_config(config_name)
        compiler = QueryCompiler(config.stack, config.flags, verify=True)
        counts = fixpoint_counts[config_name] = {
            "runs": 0, "changed": 0, "requeued": 0}
        for query_name in queries:
            try:
                compiled = compiler.compile(build_query(query_name), catalog,
                                            query_name=query_name)
                for phase in compiled.phases:
                    counts["runs"] += phase.runs
                    counts["changed"] += phase.changed
                    counts["requeued"] += phase.requeued
                if not args.no_run:
                    compiled.run(catalog)
            except VerificationError as exc:
                failures += 1
                print(f"FAIL  {config_name:17s} {query_name:4s} {exc}")
            except Exception as exc:  # noqa: BLE001 - report, keep going
                failures += 1
                print(f"ERROR {config_name:17s} {query_name:4s} "
                      f"{type(exc).__name__}: {exc}")
            else:
                print(f"ok    {config_name:17s} {query_name}")
    elapsed = time.perf_counter() - started
    for config_name, counts in fixpoint_counts.items():
        print(f"fixpoint {config_name:17s} runs {counts['runs']} / changed "
              f"{counts['changed']} / re-queued {counts['requeued']}")
    print("fixpoint-runs", json.dumps(fixpoint_counts))
    total = len(configs) * len(queries)
    print(f"{total - failures}/{total} verified clean in {elapsed:.1f}s "
          f"(sf={args.sf}, configs={','.join(configs)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
