"""Access-path speedup benchmark: planner with vs without physical access paths.

A small standalone driver (no pytest) used by CI and by hand::

    PYTHONPATH=src python benchmarks/bench_access_paths.py \
        --queries Q3 Q4 Q6 Q10 Q12 Q14 --engines vectorized \
        --scale-factor 0.01 --out BENCH_access_paths.json

    PYTHONPATH=src python benchmarks/bench_access_paths.py \
        --queries Q6 Q12 Q14 --engines dblab-5 \
        --out BENCH_access_paths_compiled.json

For every query it optimizes the plan twice against one shared (warm)
catalog — once with the default planner (access paths on: ``PrunedScan``
candidate-list pruning, ``IndexJoin`` over the load-time PK indices,
dictionary-encoded string predicates) and once with
``PlannerOptions.no_access_paths()`` (every logical rule, no physical
selection) — and times both on the same engine(s).  ``--engines`` accepts
the vectorized engine and the compiled stack configurations
(``template-expander``, ``dblab-2..5``, ``tpch-compliant``): the compiled stacks
lower ``PrunedScan``/``IndexJoin`` onto the same catalog-resident structures,
so the grid measures the access layer end to end across the lineup.  The
``interpreter`` is accepted too, but it is the reference and reads no access
structure: it runs a ``PrunedScan`` as its ``Select`` and an ``IndexJoin``
as its ``HashJoin``, so its planned column measures the logical rewrites
only.  The catalog, and therefore the access layer, is shared across
all measurements: the run also asserts that the join indices are **built
exactly once** and reused across repeated ``measure()`` calls (including
every compiled prepare()), printing the access layer's build counters as
proof.

``--assert-speedup N`` exits non-zero unless at least ``N`` query cells (per
engine) reach ``--threshold`` (default 1.5x) — the acceptance gate of the
access-path work.  CI runs without the assertion (shared runners are too
noisy for hard wall-clock gates) and keeps the JSON grid as an artifact
instead.
"""
from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", nargs="+",
                        default=["Q3", "Q4", "Q6", "Q10", "Q12", "Q14"],
                        help="TPC-H query names (default: the pruning and "
                             "index-join showcases Q3 Q4 Q6 Q10 Q12 Q14)")
    parser.add_argument("--engines", nargs="+", default=None,
                        help="engine names: direct engines or stack configs "
                             "like dblab-5 (default: vectorized)")
    parser.add_argument("--engine", default=None,
                        help="single engine (kept for compatibility; "
                             "prefer --engines)")
    parser.add_argument("--scale-factor", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SF", "0.01")),
                        help="TPC-H scale factor (default: REPRO_BENCH_SF or 0.01)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="timing repetitions per cell (default: 3)")
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--out", default="BENCH_access_paths.json",
                        help="output JSON path (default: BENCH_access_paths.json)")
    parser.add_argument("--threshold", type=float, default=1.5,
                        help="speedup counted as a win (default: 1.5)")
    parser.add_argument("--assert-speedup", type=int, default=0, metavar="N",
                        help="fail unless at least N queries reach the "
                             "threshold on every engine (default: 0 = "
                             "report only)")
    args = parser.parse_args(argv)
    engines = args.engines or ([args.engine] if args.engine else ["vectorized"])

    from repro.bench.harness import BenchmarkHarness, assert_rows_equivalent
    from repro.engine.volcano import VolcanoEngine
    from repro.planner import Planner, PlannerOptions, sort_contract
    from repro.tpch.dbgen import generate_catalog
    from repro.tpch.queries import build_query

    catalog = generate_catalog(scale_factor=args.scale_factor, seed=args.seed)
    harness = BenchmarkHarness(catalog, repetitions=args.repetitions)
    with_access = Planner(catalog, PlannerOptions())
    without_access = Planner(catalog, PlannerOptions.no_access_paths())
    layer = catalog.access_layer()

    # Warm pass: verifies both plan variants return equivalent rows and
    # builds every lazily-constructed access structure before timing.
    reference = VolcanoEngine(catalog)
    plans = {}
    for query_name in args.queries:
        raw = build_query(query_name)
        on_plan = with_access.optimize(build_query(query_name))
        off_plan = without_access.optimize(build_query(query_name))
        assert_rows_equivalent(reference.execute(off_plan),
                               reference.execute(on_plan),
                               sort_keys=sort_contract(raw), context=query_name)
        plans[query_name] = (on_plan, off_plan)

    per_engine = {}
    min_wins = None
    print(f"engines={','.join(engines)} sf={args.scale_factor} "
          f"repetitions={args.repetitions}")
    for engine in engines:
        # Engine warm pass (compiled stacks: compile + prepare + first run,
        # so every hoisted fetch hits a built structure before the counters
        # are snapshotted below).
        for query_name, (on_plan, off_plan) in plans.items():
            rows_on = harness.run_once(query_name, engine, on_plan)
            rows_off = harness.run_once(query_name, engine, off_plan)
            assert_rows_equivalent(
                rows_off, rows_on,
                sort_keys=sort_contract(build_query(query_name)),
                context=f"{engine}/{query_name}")
        builds_after_warmup = dict(layer.build_counts)

        results = {}
        wins = 0
        for query_name, (on_plan, off_plan) in plans.items():
            on = harness.measure(query_name, engine, plan=on_plan,
                                 optimize=False)
            off = harness.measure(query_name, engine, plan=off_plan,
                                  optimize=False)
            speedup = (off.run_seconds / on.run_seconds
                       if on.run_seconds else float("inf"))
            wins += speedup >= args.threshold
            results[query_name] = {
                "no_access_paths_ms": off.run_millis,
                "access_paths_ms": on.run_millis,
                "speedup": speedup,
                "rows": on.rows,
            }
            print(f"{engine:16s} {query_name}: "
                  f"no-access={off.run_millis:8.2f}ms "
                  f"access={on.run_millis:8.2f}ms  speedup={speedup:5.2f}x")

        # The build-once claim: all the timed measure() calls above reused
        # the structures built during warmup — nothing was constructed again.
        rebuilt = {key: count for key, count in layer.build_counts.items()
                   if count != builds_after_warmup.get(key)}
        if rebuilt:
            print(f"access structures were rebuilt during measurement: "
                  f"{rebuilt}", file=sys.stderr)
            return 1
        per_engine[engine] = results
        min_wins = wins if min_wins is None else min(min_wins, wins)

    index_builds = {f"{table}.{column}": count
                    for (kind, table, column), count in
                    sorted(layer.build_counts.items()) if kind == "key_index"}
    print(f"join indices built once and reused: {index_builds}")

    payload = {
        "meta": {"engines": engines, "scale_factor": args.scale_factor,
                 "seed": args.seed, "repetitions": args.repetitions,
                 "threshold": args.threshold},
        "engines": per_engine,
        # single-engine runs keep the original flat schema too
        "queries": per_engine[engines[0]],
        "index_builds": index_builds,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    if args.assert_speedup and (min_wins or 0) < args.assert_speedup:
        print(f"only {min_wins} queries reached {args.threshold:.2f}x on "
              f"some engine (required {args.assert_speedup})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
