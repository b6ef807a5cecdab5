"""Smoke test of the benchmark itself, collected by the tier-1 run.

Runs ``run.py --smoke`` (sf 0.001, about a second of requests) for every
workload, with tracing off and on, and holds the output against
``BENCHMARK.json``.  Timings are not asserted — only names, units, the
correctness gate and the counts that must repeat exactly.
"""
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import TooFewSamples, percentile  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    DECLARATION = json.load(_handle)
WORKLOADS = [workload["name"] for workload in DECLARATION["workloads"]]

#: a deterministic compiler emits the same code, rows and rewrites each time
EXACT_COUNTS = ("codegen.rows_out", "codegen.source_lines",
                "planner.rules_applied", "codegen.cache_misses")
#: the two workloads that between them compile all 22 query shapes, warm
#: and ad hoc, are traced twice
TRACED_TWICE = ("adhoc_cold", "reload_mix")


def _run(job):
    workload, trace, _ = job
    finished = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", "7", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert finished.returncode == 0, finished.stderr
    return json.loads(finished.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """``(workload, trace, repeat) -> last-line JSON``; two runs at a time,
    since nothing here reads a timing."""
    jobs = [(workload, trace, 0) for workload in WORKLOADS for trace in (0, 1)]
    jobs += [(workload, 1, 1) for workload in TRACED_TWICE]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(_run, jobs)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(results, workload, trace, section):
    result = results[workload, trace, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {metric["name"]: metric["unit"] for metric in DECLARATION[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        for name, metric in results[workload, 0, 0]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_no_operation_fails(results):
    for result in results.values():
        assert result["failed"] == 0 and result["correct"] is True
    for workload in WORKLOADS:
        assert results[workload, 1, 0]["metrics"]["failed_share"]["value"] == 0


def test_request_counts_repeat(results):
    for workload in TRACED_TWICE:
        assert results[workload, 1, 0]["attempted"] == \
            results[workload, 1, 1]["attempted"]


@pytest.mark.parametrize("workload", TRACED_TWICE)
def test_exact_counts_repeat(results, workload):
    first, second = (results[workload, 1, repeat]["metrics"] for repeat in (0, 1))
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_overflowing_the_compiled_query_cache_only_when_adhoc(results):
    for workload in WORKLOADS:
        evictions = results[workload, 1, 0]["metrics"]["codegen.cache_evictions"]
        # reload_mix evicts too: a generation bump drops every stale entry
        if workload == "adhoc_cold":
            assert evictions["value"] > 0
        elif workload != "reload_mix":
            assert evictions["value"] == 0


def test_percentile_refuses_below_the_sample_floor():
    assert percentile(list(range(200)), 95) == 189
    with pytest.raises(TooFewSamples):
        percentile(list(range(199)), 95)
    assert percentile(list(range(20)), 50) == 9


def test_declared_workloads_carry_the_generators_reasons():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import WORKLOADS as generated
    assert [(w["name"], w["why"]) for w in DECLARATION["workloads"]] == \
        [(w.name, w.why) for w in generated.values()]
