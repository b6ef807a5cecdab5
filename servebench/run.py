"""The repo's benchmark: four workloads through ``QueryServer.submit``.

One run of one workload (what ``BENCHMARK.json``'s ``command`` does)::

    python3 servebench/run.py --workload heavy_warm --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the traced run that yields the per-layer metrics and the span file.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` the command runs the whole suite — every workload in
its own fresh subprocess, ``--runs`` end-to-end runs on consecutive seeds plus
one traced run each — prints every metric by name with its unit and writes
one result file.  ``--compare A.json B.json`` sets two result files side by
side.  ``--smoke`` shrinks everything (sf 0.001, about a second of requests).
See ``README.md`` next to this file.
"""
from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

if __name__ == "__main__" and os.environ.get("MALLOC_ARENA_MAX") != "1":
    # glibc gives each of the server's worker threads a malloc arena of its
    # own, and which thread serves which request is chance: peak RSS of
    # identical runs then differs by 6 %, with a single arena by 0.3 %
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "MALLOC_ARENA_MAX": "1"})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.codegen.compiler import QueryCompiler  # noqa: E402

from layers import traced_run  # noqa: E402
from loadgen import (Checker, failed_operations, set_up,  # noqa: E402
                     timed_window, window_metrics)
from measure import (REFERENCE_KERNEL_MS, MachineSpeed,  # noqa: E402
                     quartile_spread)
from workloads import (DEFAULT_SEED, SMOKE_CACHE_CAPACITY,  # noqa: E402
                       WORKLOADS, Workload, smoke)

#: set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = 3
SMOKE_SECONDS = 1.0

#: ISSUE 11's regression bounds of the client-side metrics that are not
#: ``end_to_end`` in ``BENCHMARK.json`` (whose bounds live there).  The
#: timings do not repeat within their bound on this machine, so they are
#: declared ``per_layer`` — demoted, not widened — and come from the traced
#: run's untraced window; ``--compare`` still judges them by these bounds.
#: ``failed_share`` has an absolute bound of 0.
DEMOTED_BOUNDS = {
    "throughput_qps": 0.05, "latency_geomean_ms": 0.05, "latency_p50_ms": 0.05,
    "latency_p95_ms": 0.10, "failed_share": 0.0}

#: what ``--compare`` judges without looking at how the machine differed:
#: memory, and the one duration that is already scaled by the kernel
MACHINE_FREE_METRICS = ("setup_s", "peak_rss_mb")


def declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# One end-to-end run
# ---------------------------------------------------------------------------
async def end_to_end_run(workload: Workload, seed: int, seconds: float,
                         setups: int) -> Tuple[Dict[str, float], int, int, dict]:
    """Returns ``(client-side metrics, attempted, failed, notes)``."""
    machine = MachineSpeed()
    setup_seconds: List[float] = []
    raw_setup_seconds: List[float] = []
    setup = None
    for _ in range(setups):
        if setup is not None:
            await setup.server.drain()
            setup = None  # free the catalog before the next one is built
        kernel_before = machine.sample()
        setup = await set_up(workload, seed)
        kernel_ms = (kernel_before + machine.sample()) / 2.0
        raw_setup_seconds.append(setup.seconds)
        # the one scaled duration; see measure.py for why
        setup_seconds.append(setup.seconds * REFERENCE_KERNEL_MS / kernel_ms)
    window, _ = await timed_window(setup, workload, seed, seconds)
    await setup.server.drain()
    # Before the reference Volcano runs below, which are the benchmark's
    # memory, not the program's.  Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    machine.sample()
    failed = failed_operations(window, Checker(setup.catalog))

    metrics = window_metrics(window, failed)
    metrics["setup_s"] = statistics.median(setup_seconds)
    metrics["peak_rss_mb"] = peak_rss_mb
    notes = {
        "machine.kernel_ms": machine.kernel_ms,
        "setup_raw_s": statistics.median(raw_setup_seconds),
        "window_requests": window.attempted, "window_seconds": window.seconds,
        "setup_stages_s": {name: setup.stage_seconds(name)
                           for name in setup.stages},
        "latency_by_kind_ms": {kind: 1000.0 * seconds for kind, seconds
                               in window.median_by_kind().items()}}
    return metrics, window.attempted, failed, notes


def run_one(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    seconds, setups = args.seconds, SETUPS
    if args.smoke:
        workload, seconds, setups = smoke(workload), SMOKE_SECONDS, 1
        QueryCompiler.set_cache_capacity(SMOKE_CACHE_CAPACITY)
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        measured, attempted, failed, notes = asyncio.run(traced_run(
            workload, args.seed, seconds,
            os.path.join(OUT, f"trace-{workload.name}.json")))
    else:
        measured, attempted, failed, notes = asyncio.run(end_to_end_run(
            workload, args.seed, seconds, setups))
    declared = {section: {metric["name"]: metric["unit"]
                          for metric in declaration()[section]}
                for section in ("end_to_end", "per_layer")}
    units = {**declared["end_to_end"], **declared["per_layer"]}
    every = {name: {"value": value, "unit": units[name]}
             for name, value in measured.items()}
    # the result line carries the declared metrics of this kind of run, no
    # more and no fewer; everything measured goes to the result file
    section = declared["per_layer" if args.trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: every[name] for name in section}}
    record = dict(result, measured=every, workload=workload.name,
                  why=workload.why, trace=args.trace, notes=notes,
                  fingerprint=fingerprint(args.seed, workload.scale_factor))
    with open(result_path(workload.name, args.trace), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print_metrics(workload.name, every)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def result_path(workload: str, trace: int) -> str:
    return os.path.join(
        OUT, f"{'trace' if trace else 'run'}-result-{workload}.json")


def fingerprint(seed: int, scale_factor: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # a checkout that is no repository: do not search above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit, "seed": seed,
            "scale_factor": scale_factor}


def print_metrics(workload: str, metrics: Dict[str, dict]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:12s} {name:44s} {metric['value']:14.6g} {metric['unit']}")


# ---------------------------------------------------------------------------
# The suite: every workload, each run in a fresh subprocess
# ---------------------------------------------------------------------------
def run_suite(args: argparse.Namespace) -> int:
    """The class-level compiled-query cache, the planner memo and RSS must
    not leak between workloads, hence one process per run."""
    suite = {"runs": args.runs, "seconds": args.seconds, "smoke": args.smoke,
             "seed": args.seed, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        runs = [(args.seed + index, 0) for index in range(args.runs)]
        records: Dict[int, List[dict]] = {0: [], 1: []}
        for seed, trace in runs + [(args.seed, 1)]:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            finished = subprocess.run(
                command + (["--smoke"] if args.smoke else []),
                capture_output=True, text=True, timeout=600)
            if finished.returncode != 0:
                status = 1
                sys.stderr.write(finished.stderr)
            if not finished.stdout.strip().endswith("}"):
                continue  # it crashed before it had a result
            with open(result_path(name, trace), encoding="utf-8") as handle:
                records[trace].append(json.load(handle))
            print_metrics(name, records[trace][-1]["measured"])
        suite["workloads"][name] = {"runs": records[0], "traced": records[1]}
    os.makedirs(OUT, exist_ok=True)
    path = args.out or os.path.join(OUT, "suite.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=1)
    print(f"wrote {path}")
    return status


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """One row per (client-side metric, workload): both medians over the
    suite's end-to-end runs, the relative change, the fixed bound and a
    verdict.  ``unresolved`` means the runs cannot tell ``ok`` from
    ``regressed``: the run-to-run quartile spread of either side is wider
    than the bound, or — for a raw timing — the machine's own kernel time
    differs between the two sides by more than the bound."""
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        suites = json.load(a), json.load(b)
    for setting in ("runs", "seconds", "smoke", "seed"):
        if suites[0][setting] != suites[1][setting]:
            print(f"not comparable: {setting} is {suites[0][setting]} in "
                  f"{path_a} and {suites[1][setting]} in {path_b}")
            return 2
    better = {metric["name"]: metric["better"] for section in
              ("end_to_end", "per_layer") for metric in declaration()[section]}
    kernels = {workload: [statistics.median(
        run["notes"]["machine.kernel_ms"]
        for run in suite["workloads"][workload]["runs"]) for suite in suites]
        for workload in WORKLOADS}
    #: by how much the machine itself differed between the two sides
    machine = {workload: after / before - 1.0
               for workload, (before, after) in kernels.items()}
    regressed = False
    print(f"{'workload':12s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread A/B':>13s} verdict")
    bounds = {**DEMOTED_BOUNDS, **{metric["name"]: metric["bound"]
                                   for metric in declaration()["end_to_end"]}}
    for name, bound in bounds.items():
        sign = 1.0 if better[name] == "lower" else -1.0
        for workload in WORKLOADS:
            values = [[run["measured"][name]["value"]
                       for run in suite["workloads"][workload]["runs"]]
                      for suite in suites]
            medians = [statistics.median(v) for v in values]
            if bound == 0.0:  # absolute: any failed operation regresses
                verdict = "regressed" if max(map(max, values)) > 0 else "ok"
                print(f"{workload:12s} {name:20s} {medians[0]:12.5g} "
                      f"{medians[1]:12.5g} {'':>8s} {'0 abs':>6s} {'':>13s} {verdict}")
            else:
                spreads = [quartile_spread(v) if len(v) > 1 else 0.0
                           for v in values]
                change = (medians[1] - medians[0]) / medians[0]
                noise = max(spreads) if name in MACHINE_FREE_METRICS \
                    else max(*spreads, abs(machine[workload]))
                verdict = "unresolved" if noise > bound \
                    else "regressed" if sign * change > bound else "ok"
                print(f"{workload:12s} {name:20s} {medians[0]:12.5g} "
                      f"{medians[1]:12.5g} {change:+8.1%} {bound:6.0%} "
                      f"{spreads[0]:6.1%}/{spreads[1]:6.1%} {verdict}")
            regressed |= verdict == "regressed"
    for workload, (before, after) in kernels.items():
        print(f"{workload:12s} machine.kernel_ms: A {before:.3f}  B {after:.3f}  "
              f"({machine[workload]:+.1%}; the machine, not the program)")
    return 1 if regressed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declaration()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite only: end-to-end runs per workload")
    parser.add_argument("--out", help="suite only: result file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
