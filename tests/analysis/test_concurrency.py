"""Unit and clean-tree tests for the concurrency analyzer.

Unit tests feed synthetic modules straight into ``collect``/``run_checks``
and assert each rule family fires (or stays quiet) on minimal programs; the
clean-tree tests prove the real runtime source carries zero unannotated
violations and that the lock-order relation contains exactly the known
acquired-before edge.  The seeded discipline breaks live in
``test_concurrency_mutations.py``.
"""
import json

from repro.analysis.concurrency import (DEFAULT_TARGETS, analyze_tree,
                                        load_sources)
from repro.analysis.concurrency.annotations import parse_directives
from repro.analysis.concurrency.checks import run_checks
from repro.analysis.concurrency.collect import collect


def analyze_source(source, path="synthetic.py"):
    program = collect({path: source})
    order = run_checks(program)
    return program, order


def rules(program):
    return sorted(violation.rule for violation in program.violations)


def violations_of(program, rule):
    return [v for v in program.violations if v.rule == rule]


class TestDirectiveParsing:
    def test_inline_directive_parses(self):
        found = []
        directives = parse_directives(
            "x = 1  # concurrency: init-only\n", "t.py", found)
        assert not found
        assert len(directives) == 1
        assert directives[0].verb == "init-only"
        assert directives[0].inline

    def test_guarded_by_carries_its_argument(self):
        found = []
        directives = parse_directives(
            "# concurrency: guarded-by(_lock)\n", "t.py", found)
        assert not found
        assert directives[0].verb == "guarded-by"
        assert directives[0].arg == "_lock"
        assert not directives[0].inline

    def test_unknown_verb_is_a_violation(self):
        found = []
        parse_directives("# concurrency: frobnicate(_x)\n", "t.py", found)
        assert [v.rule for v in found] == ["bad-annotation"]

    def test_confined_requires_a_reason(self):
        found = []
        parse_directives("# concurrency: confined(event-loop)\n", "t.py",
                         found)
        assert [v.rule for v in found] == ["bad-annotation"]

    def test_confined_with_reason_parses(self):
        found = []
        directives = parse_directives(
            "# concurrency: confined(event-loop): loop-only counters\n",
            "t.py", found)
        assert not found
        assert directives[0].arg == "event-loop"
        assert directives[0].reason == "loop-only counters"


class TestGuardChecking:
    SOURCE = '''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def good(self):
        with self._lock:
            self.value += 1

    def bad(self):
        self.value += 1
'''

    def test_guarded_write_is_clean_unguarded_is_flagged(self):
        program, _ = analyze_source(self.SOURCE)
        assert rules(program) == ["unguarded-access"]
        violation = program.violations[0]
        assert violation.where == "Box.bad"
        assert "_lock" in violation.message

    def test_lock_released_after_with_block(self):
        program, _ = analyze_source('''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def partial(self):
        with self._lock:
            self.value = 1
        self.value = 2
''')
        flagged = violations_of(program, "unguarded-access")
        assert [v.line for v in flagged] == [12]

    def test_must_analysis_rejects_one_armed_branch(self):
        program, _ = analyze_source('''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def branchy(self, flag):
        if flag:
            with self._lock:
                self.value = 1
        self.value = 2
''')
        flagged = violations_of(program, "unguarded-access")
        assert [v.line for v in flagged] == [13]

    def test_init_only_rewrite_is_flagged(self):
        program, _ = analyze_source('''
import threading

class Frozen:
    def __init__(self):
        self._lock = threading.Lock()
        self.limit = 1  # concurrency: init-only

    def poke(self):
        self.limit = 2
''')
        assert rules(program) == ["init-only-write"]

    def test_synchronized_allows_mutation_but_not_rebinding(self):
        program, _ = analyze_source('''
import threading

class Holder:
    def __init__(self):
        self._lock = threading.Lock()
        # concurrency: synchronized
        self.inner = []

    def fill(self):
        self.inner.append(1)

    def swap(self):
        self.inner = []
''')
        assert rules(program) == ["synchronized-rebind"]
        assert program.violations[0].where == "Holder.swap"

    def test_two_locks_without_declaration_is_ambiguous(self):
        program, _ = analyze_source('''
import threading

class Two:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self.n = 0

    def bump(self):
        with self._a:
            self.n += 1
''')
        assert rules(program) == ["ambiguous-guard"]

    def test_guarded_by_method_contract(self):
        program, _ = analyze_source('''
import threading

class G:
    def __init__(self):
        self._lock = threading.Lock()

    # concurrency: guarded-by(_lock)
    def _unsafe(self):
        pass

    def good(self):
        with self._lock:
            self._unsafe()

    def bad(self):
        self._unsafe()
''')
        assert rules(program) == ["guarded-call"]
        assert program.violations[0].where == "G.bad"


class TestBlockingAndOrdering:
    def test_blocking_call_under_lock(self):
        program, _ = analyze_source('''
import threading
import time

class Sleepy:
    def __init__(self):
        self._lock = threading.Lock()

    def nap(self):
        with self._lock:
            time.sleep(1)
''')
        assert rules(program) == ["blocking-under-lock"]

    def test_lock_order_cycle_detected(self):
        program, order = analyze_source('''
import threading

class A:
    _la = threading.Lock()

    def one(self):
        with A._la:
            with B._lb:
                pass

class B:
    _lb = threading.Lock()

    def two(self):
        with B._lb:
            with A._la:
                pass
''')
        assert rules(program) == ["lock-order-cycle"]
        assert (("A", "_la"), ("B", "_lb")) in order.edges
        assert (("B", "_lb"), ("A", "_la")) in order.edges
        assert order.cycles

    def test_non_reentrant_reacquire(self):
        program, _ = analyze_source('''
import threading

class R:
    def __init__(self):
        self._lock = threading.Lock()

    def again(self):
        with self._lock:
            with self._lock:
                pass
''')
        assert rules(program) == ["non-reentrant-reacquire"]

    def test_reentrant_reacquire_is_allowed(self):
        program, _ = analyze_source('''
import threading

class R:
    def __init__(self):
        self._lock = threading.RLock()

    def again(self):
        with self._lock:
            with self._lock:
                pass
''')
        assert rules(program) == []


class TestAffinity:
    def test_async_blocking_and_async_lock(self):
        program, _ = analyze_source('''
import asyncio
import threading
import time

class S:
    def __init__(self):
        self._lock = threading.Lock()

    async def naps(self):
        time.sleep(1)

    async def grabs(self):
        with self._lock:
            pass

    async def fine(self):
        await asyncio.sleep(1)
''')
        assert rules(program) == ["async-blocking", "async-lock"]

    def test_runs_on_callee_needs_matching_context(self):
        program, _ = analyze_source('''
import threading

class S:
    def __init__(self):
        self._lock = threading.Lock()

    # concurrency: runs-on(event-loop)
    def _resolve(self):
        pass

    async def ok(self):
        self._resolve()

    def wrong(self):
        self._resolve()
''')
        assert rules(program) == ["affinity-call"]
        assert program.violations[0].where == "S.wrong"


class TestCleanTree:
    def test_runtime_source_has_zero_violations(self):
        report = analyze_tree()
        assert report.ok, "\n".join(v.render() for v in report.violations)

    def test_inventory_covers_the_locked_runtime_classes(self):
        report = analyze_tree()
        owning = {name for name, cls in report.program.classes.items()
                  if cls.owns_lock}
        assert owning == {"DerivedCache", "AccessLayer", "FaultPlan",
                          "AdmissionController", "CircuitBreaker",
                          "IncidentLog"}
        # lock-less classes that declare disciplines are still inventoried
        # and checked: the event loop confines the server's state, and the
        # executor's per-mode compilers are fixed at construction
        classes = report.program.classes
        assert classes["QueryServer"].shared["_in_flight"].confined == "event-loop"
        assert classes["HardenedExecutor"].shared["_compilers"].init_only

    def test_known_acquired_before_edge(self):
        """Invalidation empties the derived cache inside the critical
        section that bumps the generation: layer lock, then cache lock."""
        report = analyze_tree()
        edge = (("AccessLayer", "_lock"), ("DerivedCache", "_lock"))
        assert set(report.lock_order.edges) == {edge}
        assert report.lock_order.cycles == []

    def test_json_report_shape(self):
        report = analyze_tree()
        payload = json.loads(report.to_json())
        assert payload["tool"] == "repro.analysis.concurrency"
        assert payload["targets"] == list(DEFAULT_TARGETS)
        summary = payload["summary"]
        assert summary["violations"] == 0
        assert summary["lock_order_cycles"] == 0
        # ceilings, not floors: ROADMAP's simplicity metric must not creep
        # back up unnoticed (PR 10 shipped 9 / 10 / 46 / 1; the fixed serving
        # window took the AIMD limiter's lock and three counters: 7 / 8 / 31
        # -> 6 / 7 / 28)
        assert summary["lock_owning_classes"] <= 6
        assert summary["locks"] <= 7
        assert summary["shared_attrs"] <= 28
        assert summary["lock_order_edges"] <= 1
        assert {"edges", "cycles"} <= set(payload["lock_order"])
        for entry in payload["lock_order"]["edges"]:
            assert {"acquired", "then", "sites"} <= set(entry)

    def test_load_sources_rejects_unknown_override(self):
        try:
            load_sources(overrides={"src/repro/nope.py": ""})
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError for unknown override")


class TestCommandLine:
    def test_concurrency_cli_exits_clean(self, capsys):
        from repro.analysis.concurrency.__main__ import main
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_umbrella_dispatches_and_rejects_unknown_tools(self, capsys):
        from repro.analysis.__main__ import main
        assert main(["concurrency"]) == 0
        assert main(["--help"]) == 0
        assert main([]) == 2
        assert main(["no-such-tool"]) == 2
        err = capsys.readouterr().err
        assert "unknown analysis tool" in err
        assert main(["dataflow"]) == 2
        assert "'dataflow'" in capsys.readouterr().err
        main(["--help"])
        usage = capsys.readouterr().out
        tools = usage.split("tools:\n", 1)[1].split("\n\n", 1)[0]
        assert [line.split()[0] for line in tools.splitlines()] == \
            ["verify", "concurrency"]

    def test_cli_writes_the_json_artifact(self, tmp_path, capsys):
        from repro.analysis.concurrency.__main__ import main
        out_file = tmp_path / "report.json"
        assert main(["--out", str(out_file)]) == 0
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["violations"] == 0
