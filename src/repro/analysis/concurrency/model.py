"""Data model of the concurrency analyzer.

Everything the collection pass extracts from the target modules — locks,
shared-attribute declarations, accesses, call sites, per-function facts —
plus the :class:`Violation` record every check emits.  Lock identity is the
pair ``(class name, lock attribute name)``: the analyzer reasons about one
instance of each class at a time (the runtime shares single instances per
catalog/server), which is exact for the acquired-before relation because a
``with self._lock`` in class ``C`` always names the same per-instance (or
class-level) lock object family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

#: (owning class name, lock attribute name)
LockId = Tuple[str, str]

EMPTY_LOCKS: FrozenSet[LockId] = frozenset()

#: bare-name calls that are known-blocking wherever they appear (CPython
#: compile/exec of generated source, file/console I/O)
BLOCKING_NAME_CALLS = frozenset({"exec", "eval", "compile", "open", "input", "sleep"})

#: module-qualified calls that are known-blocking
BLOCKING_DOTTED_CALLS = frozenset({"time.sleep", "os.system", "subprocess.run"})

#: module-qualified calls that must *not* match the attribute registry
#: (awaitable coroutine factories, not thread-blocking calls)
NONBLOCKING_DOTTED_CALLS = frozenset({"asyncio.sleep"})

#: method names that block the calling thread regardless of receiver type:
#: ``Future.result``, ``Thread.join``, ``Event.wait``, ``Executor.shutdown``,
#: ``queue.get`` is covered by generic exclusion + dotted form, ``.acquire``
#: on raw locks, the executor's injected ``_sleep``, and fault-spec
#: ``.action`` callbacks (chaos tests use them to park a thread mid-phase)
BLOCKING_ATTR_CALLS = frozenset({
    "result", "join", "wait", "shutdown", "acquire", "_sleep", "action",
})

#: method names too generic to resolve by name across classes (they would
#: alias ``dict``/``list``/``set``/``deque``/``Event`` methods and invent
#: false call-graph edges)
GENERIC_METHOD_NAMES = frozenset({
    "add", "append", "appendleft", "cancel", "clear", "close", "copy",
    "count", "discard", "done", "extend", "get", "index", "insert", "items",
    "is_set", "join", "keys", "move_to_end", "open", "pop", "popitem",
    "popleft", "put", "read", "remove", "reverse", "send", "set",
    "setdefault", "sort", "split", "strip", "update", "values", "write",
})

#: method calls on an attribute that mutate the attribute's value in place
MUTATOR_METHOD_NAMES = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "intersection_update", "move_to_end", "pop", "popitem", "popleft",
    "remove", "reset", "set", "setdefault", "update",
})


@dataclass(frozen=True)
class Violation:
    """One finding; ``rule`` is the stable machine-readable identifier."""

    rule: str
    path: str
    line: int
    where: str
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "where": self.where, "message": self.message}

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.where}: {self.message}"


@dataclass
class LockDecl:
    """One ``threading.Lock``/``RLock`` owned by a class."""

    cls: str
    name: str
    reentrant: bool
    line: int


@dataclass
class SharedAttr:
    """One attribute of a lock-owning class mutated outside ``__init__``.

    ``guard`` names the protecting lock attribute (inferred when the class
    owns exactly one lock, explicit via ``guarded-by`` otherwise); the
    confinement/thread-local/init-only alternatives replace guarding with a
    declared, checked discipline.
    """

    cls: str
    name: str
    guard: Optional[str] = None
    guard_source: str = "inferred"
    confined: Optional[str] = None
    init_only: bool = False
    thread_local: bool = False
    synchronized: bool = False
    reason: str = ""
    decl_line: int = 0
    write_sites: int = 0
    read_sites: int = 0

    def as_dict(self) -> Dict[str, object]:
        discipline: str
        if self.thread_local:
            discipline = "thread-local"
        elif self.synchronized:
            discipline = "synchronized"
        elif self.init_only:
            discipline = "init-only"
        elif self.confined is not None:
            discipline = f"confined({self.confined})"
        else:
            discipline = f"guarded-by({self.guard})" if self.guard else "undeclared"
        return {
            "attr": self.name,
            "discipline": discipline,
            "guard_source": self.guard_source,
            "reason": self.reason,
            "write_sites": self.write_sites,
            "read_sites": self.read_sites,
        }


@dataclass
class Access:
    """One read/write of a tracked shared attribute."""

    owner: str
    attr: str
    #: "read" | "write" (direct rebinding/unbinding of the attribute) |
    #: "mutate" (in-place mutation of the object the attribute holds:
    #: subscript store, write-through, or a mutator-method call)
    kind: str
    line: int
    func: str
    held: FrozenSet[LockId]
    in_nested: bool = False
    escape_reason: Optional[str] = None


@dataclass
class CallSite:
    """One call expression, with the lock set held when it executes.

    ``callee_kind`` is how the callee was spelled: ``name`` (bare name),
    ``self`` (``self.m``/``cls.m``), ``class`` (``C.m`` with ``C`` an
    analyzed class), ``dotted`` (``module.m``) or ``attr``
    (``<expr>.m`` — resolved by method name across analyzed classes).
    """

    callee_kind: str
    callee: str
    line: int
    func: str
    held: FrozenSet[LockId]
    awaited: bool = False
    in_nested: bool = False
    receiver_is_str: bool = False
    #: ``base.attr`` spelling when the receiver was a bare name (module
    #: alias or local variable) — matched against the dotted registries
    dotted: Optional[str] = None
    escape_reason: Optional[str] = None


@dataclass
class AcquireSite:
    """One direct ``with <lock>`` acquisition."""

    lock: LockId
    line: int
    func: str
    held: FrozenSet[LockId]
    in_nested: bool = False
    escape_reason: Optional[str] = None


@dataclass
class FunctionInfo:
    """Per-function facts after the collection pass."""

    cls: Optional[str]
    name: str
    qualname: str
    path: str
    line: int
    is_async: bool = False
    is_nested: bool = False
    guarded_by: Optional[str] = None
    runs_on: Optional[str] = None
    blocking_annotated: bool = False
    accesses: List[Access] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    acquires: List[AcquireSite] = field(default_factory=list)
    #: fixpoint summaries (filled by checks.compute_summaries)
    acquires_star: Set[LockId] = field(default_factory=set)
    blocking_star: bool = False

    @property
    def is_init(self) -> bool:
        return self.name in ("__init__", "__post_init__")


@dataclass
class ClassInfo:
    """One analyzed class: its locks, shared attrs and methods."""

    name: str
    path: str
    line: int
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    shared: Dict[str, SharedAttr] = field(default_factory=dict)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def owns_lock(self) -> bool:
        return bool(self.locks)

    def single_lock(self) -> Optional[str]:
        if len(self.locks) == 1:
            return next(iter(self.locks))
        return None


@dataclass
class ModuleInfo:
    """One parsed target module."""

    path: str
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: every FunctionInfo in the module, including nested ones
    all_functions: List[FunctionInfo] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
