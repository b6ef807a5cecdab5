"""The check families run over a collected :class:`~.collect.Program`.

* **guards** — every access to a shared attribute must satisfy its declared
  (or inferred) discipline: lock provably held, init-only never rewritten,
  confined attributes written only from their declared context;
* **guarded-by contracts** — a ``@guarded_by`` method body is analyzed with
  the lock held, and every call site must actually hold it;
* **blocking-under-lock** — no known-blocking call (registry match or a
  call resolving to a transitively-blocking function) while any lock is
  held;
* **lock order** — the acquired-before relation, including acquisitions
  made by transitive callees; cycles and non-reentrant re-acquisitions are
  violations, the relation itself goes into the JSON report;
* **thread affinity** — the resource governor must be installed via
  ``governed(...)`` from worker-side code, coroutine bodies must not make
  blocking calls or acquire ``threading`` locks, and ``runs-on`` methods
  must only be called from their declared context.

Call resolution is deliberately conservative: exact for ``self.m`` /
``cls.m`` / ``ClassName.m`` and bare module-function names, name-based
across analyzed classes for ``obj.m`` (excluding names in
:data:`~.model.GENERIC_METHOD_NAMES`), and registry-based for everything
else.  Awaited calls never block the thread (the loop suspends instead),
and calling an async function merely instantiates a coroutine.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .collect import Program
from .model import (BLOCKING_ATTR_CALLS, BLOCKING_DOTTED_CALLS,
                    BLOCKING_NAME_CALLS, CallSite, FunctionInfo,
                    GENERIC_METHOD_NAMES, LockId, NONBLOCKING_DOTTED_CALLS,
                    Violation)

#: (class, installer function) pairs: each class must call the installer
#: from at least one of its sync (worker-side) methods so the governor's
#: ContextVar is populated on every worker thread
GOVERNOR_INSTALLS: Tuple[Tuple[str, str], ...] = (
    ("HardenedExecutor", "governed"),
)


@dataclass
class LockOrderResult:
    """The acquired-before relation plus any cycles found in it."""

    edges: Dict[Tuple[LockId, LockId], List[Dict[str, object]]] = \
        field(default_factory=dict)
    cycles: List[List[LockId]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        def fmt(lock: LockId) -> str:
            return f"{lock[0]}.{lock[1]}"
        edges = [
            {"acquired": fmt(first), "then": fmt(second), "sites": sites}
            for (first, second), sites in sorted(self.edges.items())
        ]
        return {
            "edges": edges,
            "cycles": [[fmt(lock) for lock in cycle] for cycle in self.cycles],
        }


def run_checks(program: Program) -> LockOrderResult:
    """Run every family; violations append to ``program.violations``."""
    compute_summaries(program)
    _check_guards(program)
    _check_guarded_calls(program)
    _check_blocking_under_lock(program)
    order = _check_lock_order(program)
    _check_affinity(program)
    return order


# ----------------------------------------------------------------------
# call resolution + blocking classification
# ----------------------------------------------------------------------

def resolve_call(site: CallSite, program: Program,
                 ctx_cls: Optional[str]) -> List[FunctionInfo]:
    if site.callee_kind == "name":
        fn = program.module_functions.get(site.callee)
        if fn is not None:
            return [fn]
        target_cls = ctx_cls if site.callee == "cls" else site.callee
        info = program.classes.get(target_cls) if target_cls else None
        if info is not None:
            init = info.methods.get("__init__")
            return [init] if init is not None else []
        return []
    if site.callee_kind == "self":
        if ctx_cls is not None:
            method = program.classes[ctx_cls].methods.get(site.callee)
            if method is not None:
                return [method]
        return []
    if site.callee_kind == "class":
        cname, _, mname = site.callee.partition(".")
        info = program.classes.get(cname)
        if info is not None:
            method = info.methods.get(mname)
            if method is not None:
                return [method]
        return []
    # attr: resolve by method name across analyzed classes
    if site.callee in GENERIC_METHOD_NAMES:
        return []
    return list(program.methods_by_name.get(site.callee, []))


def blocking_reason(site: CallSite, program: Program,
                    ctx_cls: Optional[str]) -> Optional[str]:
    """Why this call can block the thread, or ``None`` if it cannot."""
    if site.awaited:
        return None
    if site.dotted is not None:
        if site.dotted in NONBLOCKING_DOTTED_CALLS:
            return None
        if site.dotted in BLOCKING_DOTTED_CALLS:
            return f"{site.dotted} is known-blocking"
    callees = resolve_call(site, program, ctx_cls)
    if callees:
        for callee in callees:
            if not callee.is_async and callee.blocking_star:
                return f"resolves to {callee.qualname}, which may block"
        return None
    if site.callee_kind == "name":
        if site.callee in BLOCKING_NAME_CALLS:
            return f"{site.callee}() is known-blocking"
        return None
    attr = site.callee.rpartition(".")[2]
    if attr in BLOCKING_ATTR_CALLS and not site.receiver_is_str:
        return f".{attr}() is known-blocking"
    return None


def compute_summaries(program: Program) -> None:
    """Fixpoint over ``acquires_star`` / ``blocking_star``."""
    functions = list(program.all_functions())
    for fn in functions:
        fn.acquires_star = {site.lock for site in fn.acquires}
        fn.blocking_star = fn.blocking_annotated
    changed = True
    while changed:
        changed = False
        for fn in functions:
            acquires = set(fn.acquires_star)
            blocking = fn.blocking_star or fn.blocking_annotated
            for site in fn.calls:
                if site.in_nested or site.awaited:
                    continue
                if not blocking and blocking_reason(site, program, fn.cls):
                    blocking = True
                for callee in resolve_call(site, program, fn.cls):
                    if not callee.is_async:
                        acquires |= callee.acquires_star
            if acquires != fn.acquires_star or blocking != fn.blocking_star:
                fn.acquires_star = acquires
                fn.blocking_star = blocking
                changed = True


# ----------------------------------------------------------------------
# guard discipline
# ----------------------------------------------------------------------

def _check_guards(program: Program) -> None:
    for fn in program.all_functions():
        for access in fn.accesses:
            cls = program.classes.get(access.owner)
            if cls is None:
                continue
            decl = cls.shared.get(access.attr)
            if decl is None or decl.thread_local:
                continue
            if fn.is_init and fn.cls == access.owner and not access.in_nested:
                continue  # object under construction, not yet published
            if access.escape_reason is not None:
                continue
            where = f"{access.owner}.{access.attr}"
            writing = access.kind != "read"
            if decl.synchronized:
                # the held object locks internally; only rebinding the
                # attribute itself would race
                if access.kind == "write":
                    program.violations.append(Violation(
                        "synchronized-rebind", fn.path, access.line,
                        fn.qualname,
                        f"{where} is declared synchronized (internally "
                        "locked object) but is rebound here"))
                continue
            if decl.init_only:
                if writing:
                    program.violations.append(Violation(
                        "init-only-write", fn.path, access.line, fn.qualname,
                        f"{where} is declared init-only but is "
                        f"{'mutated' if access.kind == 'mutate' else 'written'}"
                        " here"))
                continue
            if decl.confined is not None:
                if not writing:
                    continue  # monitoring reads tolerate staleness
                ok = (fn.runs_on == decl.confined
                      or (decl.confined == "event-loop" and fn.is_async
                          and not access.in_nested))
                if not ok:
                    program.violations.append(Violation(
                        "confined-write", fn.path, access.line, fn.qualname,
                        f"{where} is confined({decl.confined}) but "
                        f"{fn.qualname} is not declared to run there"))
                continue
            if decl.guard is None:
                continue  # ambiguous-guard already reported by the inventory
            if (access.owner, decl.guard) not in access.held:
                program.violations.append(Violation(
                    "unguarded-access", fn.path, access.line, fn.qualname,
                    f"{access.kind} of {where} without holding "
                    f"{decl.guard} ({decl.guard_source} guard)"))


def _check_guarded_calls(program: Program) -> None:
    for fn in program.all_functions():
        for site in fn.calls:
            if site.in_nested or site.callee_kind not in ("self", "class"):
                continue
            for callee in resolve_call(site, program, fn.cls):
                lock_name = callee.guarded_by
                if lock_name is None or callee.cls is None:
                    continue
                if (callee.cls, lock_name) in site.held:
                    continue
                if site.escape_reason is not None:
                    continue
                program.violations.append(Violation(
                    "guarded-call", fn.path, site.line, fn.qualname,
                    f"call to {callee.qualname} requires {lock_name} "
                    "(declared @guarded_by) but it is not provably held"))


# ----------------------------------------------------------------------
# blocking under lock
# ----------------------------------------------------------------------

def _check_blocking_under_lock(program: Program) -> None:
    for fn in program.all_functions():
        for site in fn.calls:
            if site.in_nested or not site.held or site.escape_reason:
                continue
            reason = blocking_reason(site, program, fn.cls)
            if reason is None:
                continue
            held = ", ".join(sorted(f"{c}.{n}" for c, n in site.held))
            program.violations.append(Violation(
                "blocking-under-lock", fn.path, site.line, fn.qualname,
                f"{reason} while holding {held}"))


# ----------------------------------------------------------------------
# lock ordering
# ----------------------------------------------------------------------

def _reentrant(program: Program, lock: LockId) -> bool:
    cls = program.classes.get(lock[0])
    if cls is None:
        return False
    decl = cls.locks.get(lock[1])
    return decl.reentrant if decl is not None else False


def _check_lock_order(program: Program) -> LockOrderResult:
    result = LockOrderResult()

    def add_edge(first: LockId, second: LockId, path: str, line: int,
                 func: str, via: Optional[str]) -> None:
        site: Dict[str, object] = {"path": path, "line": line, "func": func}
        if via is not None:
            site["via"] = via
        result.edges.setdefault((first, second), []).append(site)

    for fn in program.all_functions():
        for acquire in fn.acquires:
            for held in acquire.held:
                if held == acquire.lock:
                    if not _reentrant(program, acquire.lock):
                        program.violations.append(Violation(
                            "non-reentrant-reacquire", fn.path, acquire.line,
                            fn.qualname,
                            f"re-acquires non-reentrant "
                            f"{held[0]}.{held[1]} (self-deadlock)"))
                    continue
                add_edge(held, acquire.lock, fn.path, acquire.line,
                         fn.qualname, None)
        for site in fn.calls:
            if site.in_nested or site.awaited or not site.held:
                continue
            for callee in resolve_call(site, program, fn.cls):
                if callee.is_async:
                    continue
                for lock in callee.acquires_star:
                    if lock in site.held:
                        if not _reentrant(program, lock):
                            program.violations.append(Violation(
                                "non-reentrant-reacquire", fn.path,
                                site.line, fn.qualname,
                                f"call to {callee.qualname} re-acquires "
                                f"non-reentrant {lock[0]}.{lock[1]}"))
                        continue
                    for held in site.held:
                        add_edge(held, lock, fn.path, site.line, fn.qualname,
                                 callee.qualname)

    result.cycles = _find_cycles(result.edges)
    for cycle in result.cycles:
        names = " -> ".join(f"{c}.{n}" for c, n in cycle + cycle[:1])
        first_edge = (cycle[0], cycle[1 % len(cycle)])
        sites = result.edges.get(first_edge, [{}])
        line = int(sites[0].get("line", 0)) if sites else 0
        path = str(sites[0].get("path", "")) if sites else ""
        program.violations.append(Violation(
            "lock-order-cycle", path, line, "<lock-order>",
            f"cyclic acquired-before relation: {names}"))
    return result


def _find_cycles(edges: Dict[Tuple[LockId, LockId], List[Dict[str, object]]]
                 ) -> List[List[LockId]]:
    adjacency: Dict[LockId, List[LockId]] = {}
    for first, second in edges:
        adjacency.setdefault(first, []).append(second)
    cycles: List[List[LockId]] = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[LockId, int] = {}
    stack: List[LockId] = []

    def visit(node: LockId) -> None:
        color[node] = GRAY
        stack.append(node)
        for successor in adjacency.get(node, ()):
            state = color.get(successor, WHITE)
            if state == GRAY:
                start = stack.index(successor)
                cycles.append(list(stack[start:]))
            elif state == WHITE:
                visit(successor)
        stack.pop()
        color[node] = BLACK

    for node in sorted(adjacency):
        if color.get(node, WHITE) == WHITE:
            visit(node)
    return cycles


# ----------------------------------------------------------------------
# thread affinity
# ----------------------------------------------------------------------

def _check_affinity(program: Program) -> None:
    # 1. governor installation: ContextVars do not propagate to pool
    #    threads, so worker-side code must install the budget itself
    for cname, installer in GOVERNOR_INSTALLS:
        cls = program.classes.get(cname)
        if cls is None:
            continue
        installed = any(
            site.callee_kind == "name" and site.callee == installer
            for fn in program.all_functions() if fn.cls == cname
            for site in fn.calls)
        if not installed:
            program.violations.append(Violation(
                "governor-install", cls.path, cls.line, cname,
                f"no method of {cname} installs the resource governor via "
                f"{installer}(...); worker threads would run unbudgeted"))

    for fn in program.all_functions():
        # 2. coroutine bodies must not block the event loop
        if fn.is_async:
            for site in fn.calls:
                if site.in_nested or site.escape_reason:
                    continue
                reason = blocking_reason(site, program, fn.cls)
                if reason is not None:
                    program.violations.append(Violation(
                        "async-blocking", fn.path, site.line, fn.qualname,
                        f"{reason} inside a coroutine; route it through "
                        "the executor"))
            # 3. ... nor hold threading locks across statements
            for acquire in fn.acquires:
                if acquire.escape_reason is not None:
                    continue
                lock = f"{acquire.lock[0]}.{acquire.lock[1]}"
                program.violations.append(Violation(
                    "async-lock", fn.path, acquire.line, fn.qualname,
                    f"coroutine acquires threading lock {lock}; do the "
                    "locked work in the executor"))
        # 4. runs-on methods may only be called from their context
        for site in fn.calls:
            if site.in_nested or site.callee_kind not in ("self", "class"):
                continue
            for callee in resolve_call(site, program, fn.cls):
                if callee.runs_on is None or site.escape_reason:
                    continue
                ok = (fn.runs_on == callee.runs_on or fn.is_init
                      or (callee.runs_on == "event-loop" and fn.is_async))
                if not ok:
                    program.violations.append(Violation(
                        "affinity-call", fn.path, site.line, fn.qualname,
                        f"{callee.qualname} is declared "
                        f"runs-on({callee.runs_on}) but {fn.qualname} "
                        "is not bound to that context"))
