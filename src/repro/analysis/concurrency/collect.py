"""Collection pass: modules → classes, locks, functions, accesses, calls.

Runs in three sweeps over the parsed target modules:

1. *structure* — classes, their lock declarations (``threading.Lock()`` /
   ``RLock()`` assigned in the class body or ``__init__``), attribute
   disciplines declared via ``# concurrency:`` directives, method/function
   shells with their ``@guarded_by`` decorators and function directives;
2. *bodies* — for every function, an intraprocedural must-hold-locks CFG
   (:mod:`.cfg`) and one walk over its statements recording every shared
   attribute access, call expression and direct lock acquisition together
   with the lock set provably held at that point.  Nested ``def``/``lambda``
   bodies become their own :class:`~.model.FunctionInfo` analyzed with an
   empty initial lock set (they may run on any thread, any time);
3. *inventory* — per lock-owning class, the shared-attribute table: every
   attribute written outside ``__init__`` plus every declared one, each with
   an explicit or inferred discipline.

The result is a :class:`Program` the checks operate on; collection itself
only emits ``bad-annotation`` violations (everything else is judged later).
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .annotations import (Directive, attach_directives, guarded_by_decorator,
                          parse_directives)
from .cfg import LockResolver, _nested_bodies, held_per_statement
from .model import (EMPTY_LOCKS, Access, AcquireSite, CallSite, ClassInfo,
                    FunctionInfo, LockDecl, LockId, ModuleInfo,
                    MUTATOR_METHOD_NAMES, SharedAttr, Violation)


@dataclass
class Program:
    """Whole-program view over every analyzed module."""

    modules: List[ModuleInfo] = field(default_factory=list)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    module_functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    methods_by_name: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    #: one entry per ``unguarded:`` escape directive, for the JSON report
    escapes: List[Dict[str, object]] = field(default_factory=list)

    def all_functions(self) -> Iterator[FunctionInfo]:
        for module in self.modules:
            yield from module.all_functions


def collect(sources: Dict[str, str]) -> Program:
    """Analyze ``sources`` (path → text) into a :class:`Program`."""
    program = Program()
    parsed: List[Tuple[str, ast.Module, List[Directive],
                       Dict[int, List[Directive]]]] = []
    for path in sorted(sources):
        tree = ast.parse(sources[path], filename=path)
        directives = parse_directives(sources[path], path, program.violations)
        attached = attach_directives(tree, directives, path, program.violations)
        parsed.append((path, tree, directives, attached))
        for directive in directives:
            if directive.verb == "unguarded":
                program.escapes.append({
                    "path": path, "line": directive.line,
                    "reason": directive.reason})

    # sweep 1: structure (classes + locks must exist before lock resolution)
    harvests: List[_ModuleHarvest] = []
    for path, tree, _directives, attached in parsed:
        harvest = _harvest_structure(path, tree, attached, program)
        harvests.append(harvest)
        program.modules.append(harvest.module)
        for name, cls in harvest.module.classes.items():
            program.classes[name] = cls
        for name, fn in harvest.module.functions.items():
            program.module_functions[name] = fn
        for cls in harvest.module.classes.values():
            for fn in cls.methods.values():
                program.methods_by_name.setdefault(fn.name, []).append(fn)

    # sweep 2: bodies
    for harvest in harvests:
        walker = _BodyWalker(program, harvest)
        walker.run()

    # sweep 3: shared-state inventory
    declared_by_class: Dict[str, Dict[str, _DeclaredAttr]] = {}
    for harvest in harvests:
        declared_by_class.update(harvest.declared)
    _build_inventory(program, declared_by_class)
    return program


# ----------------------------------------------------------------------
# structure harvest
# ----------------------------------------------------------------------

@dataclass
class _DeclaredAttr:
    """Directive-declared attribute discipline, pre-inventory."""

    guard: Optional[str] = None
    confined: Optional[str] = None
    init_only: bool = False
    thread_local: bool = False
    synchronized: bool = False
    reason: str = ""
    line: int = 0


@dataclass
class _ModuleHarvest:
    module: ModuleInfo
    attached: Dict[int, List[Directive]]
    #: class name → attr name → declaration
    declared: Dict[str, Dict[str, _DeclaredAttr]] = field(default_factory=dict)
    #: FunctionInfo → (enclosing ClassDef or None, ast def node)
    bodies: List[Tuple[FunctionInfo, Optional[str], ast.AST]] = \
        field(default_factory=list)


def _is_lock_ctor(node: ast.expr) -> Optional[bool]:
    """``True``/``False`` for RLock/Lock constructor calls, else ``None``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if name == "RLock":
        return True
    if name == "Lock":
        return False
    return None


def _is_thread_local_ctor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    return name == "local"


def _assign_parts(stmt: ast.stmt) -> Optional[Tuple[List[ast.expr], Optional[ast.expr]]]:
    if isinstance(stmt, ast.Assign):
        return stmt.targets, stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target], stmt.value
    return None


def _apply_attr_directives(directives: List[Directive], decl: _DeclaredAttr,
                           path: str, where: str,
                           violations: List[Violation]) -> None:
    for directive in directives:
        decl.line = decl.line or directive.line
        if directive.verb == "guarded-by":
            decl.guard = directive.arg
        elif directive.verb == "init-only":
            decl.init_only = True
        elif directive.verb == "confined":
            decl.confined = directive.arg
            decl.reason = directive.reason
        elif directive.verb == "thread-local":
            decl.thread_local = True
        elif directive.verb == "synchronized":
            decl.synchronized = True
        elif directive.verb == "unguarded":
            pass  # statement-level escape, handled by the body walk
        else:
            violations.append(Violation(
                "bad-annotation", path, directive.line, where,
                f"{directive.verb} directive does not apply to an attribute"))


def _harvest_structure(path: str, tree: ast.Module,
                       attached: Dict[int, List[Directive]],
                       program: Program) -> _ModuleHarvest:
    module = ModuleInfo(path=path)
    harvest = _ModuleHarvest(module=module, attached=attached)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            _harvest_class(stmt, path, harvest, program)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _make_function(stmt, None, stmt.name, path, harvest, program)
            module.functions[fn.name] = fn
            module.all_functions.append(fn)
    return harvest


def _harvest_class(node: ast.ClassDef, path: str, harvest: _ModuleHarvest,
                   program: Program) -> None:
    cls = ClassInfo(name=node.name, path=path, line=node.lineno)
    harvest.module.classes[node.name] = cls
    declared = harvest.declared.setdefault(node.name, {})
    init_nodes: List[ast.AST] = []
    for stmt in node.body:
        parts = _assign_parts(stmt)
        if parts is not None:
            targets, value = parts
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                _declare_attr(cls, declared, target.id, value, stmt,
                              harvest, program)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = _make_function(stmt, node.name, f"{node.name}.{stmt.name}",
                                path, harvest, program)
            cls.methods[fn.name] = fn
            harvest.module.all_functions.append(fn)
            if fn.is_init:
                init_nodes.append(stmt)
    for init in init_nodes:
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.stmt):
                continue
            parts = _assign_parts(stmt)
            if parts is None:
                continue
            targets, value = parts
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    _declare_attr(cls, declared, target.attr, value, stmt,
                                  harvest, program)


def _declare_attr(cls: ClassInfo, declared: Dict[str, _DeclaredAttr],
                  attr: str, value: Optional[ast.expr], stmt: ast.stmt,
                  harvest: _ModuleHarvest, program: Program) -> None:
    if value is not None:
        reentrant = _is_lock_ctor(value)
        if reentrant is not None:
            cls.locks[attr] = LockDecl(cls.name, attr, reentrant, stmt.lineno)
            return
        if _is_thread_local_ctor(value):
            decl = declared.setdefault(attr, _DeclaredAttr(line=stmt.lineno))
            decl.thread_local = True
    directives = harvest.attached.get(id(stmt))
    if directives:
        attr_directives = [d for d in directives
                           if d.verb not in ("unguarded", "runs-on", "blocking")]
        if attr_directives:
            decl = declared.setdefault(attr, _DeclaredAttr(line=stmt.lineno))
            _apply_attr_directives(attr_directives, decl, cls.path,
                                   f"{cls.name}.{attr}", program.violations)


def _make_function(node: ast.AST, cls: Optional[str], qualname: str,
                   path: str, harvest: _ModuleHarvest,
                   program: Program) -> FunctionInfo:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    fn = FunctionInfo(
        cls=cls, name=node.name, qualname=qualname, path=path,
        line=node.lineno, is_async=isinstance(node, ast.AsyncFunctionDef))
    for decorator in node.decorator_list:
        lock_name = guarded_by_decorator(decorator)
        if lock_name is not None:
            fn.guarded_by = lock_name
    for directive in harvest.attached.get(id(node), ()):
        if directive.verb == "runs-on":
            fn.runs_on = directive.arg
        elif directive.verb == "blocking":
            fn.blocking_annotated = True
        elif directive.verb == "guarded-by":
            fn.guarded_by = directive.arg
        elif directive.verb == "unguarded":
            pass
        else:
            program.violations.append(Violation(
                "bad-annotation", path, directive.line, qualname,
                f"{directive.verb} directive does not apply to a function"))
    harvest.bodies.append((fn, cls, node))
    return fn


# ----------------------------------------------------------------------
# body walk
# ----------------------------------------------------------------------

class _BodyWalker:
    """Second sweep: per-function CFG + access/call/acquire extraction."""

    def __init__(self, program: Program, harvest: _ModuleHarvest) -> None:
        self.program = program
        self.harvest = harvest
        self.path = harvest.module.path

    def run(self) -> None:
        queue = list(self.harvest.bodies)
        while queue:
            fn, cls, node = queue.pop(0)
            assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            self._walk_function(fn, cls, node)

    # -- lock resolution -----------------------------------------------
    def _resolver(self, cls: Optional[str]) -> "LockResolver":
        def resolve(expr: ast.expr) -> Optional[LockId]:
            if not isinstance(expr, ast.Attribute):
                return None
            base = expr.value
            owner: Optional[str] = None
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    owner = cls
                elif base.id in self.program.classes:
                    owner = base.id
            if owner is None:
                return None
            info = self.program.classes.get(owner)
            if info is not None and expr.attr in info.locks:
                return (owner, expr.attr)
            return None
        return resolve

    # -- function body --------------------------------------------------
    def _walk_function(self, fn: FunctionInfo, cls: Optional[str],
                       node: ast.AST) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        resolve = self._resolver(cls)
        initial: FrozenSet[LockId] = EMPTY_LOCKS
        if fn.guarded_by is not None:
            if cls is None or fn.guarded_by not in self.program.classes[cls].locks:
                self.program.violations.append(Violation(
                    "bad-annotation", self.path, fn.line, fn.qualname,
                    f"guarded_by({fn.guarded_by!r}) names no lock of "
                    f"{cls or 'the module'}"))
            else:
                initial = frozenset({(cls, fn.guarded_by)})
        held_map = held_per_statement(node.body, resolve, initial)
        for stmt in _iter_stmts(node.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = FunctionInfo(
                    cls=cls, name=stmt.name,
                    qualname=f"{fn.qualname}.<{stmt.name}>", path=self.path,
                    line=stmt.lineno,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    is_nested=True)
                self.harvest.module.all_functions.append(nested)
                self._walk_function(nested, cls, stmt)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            held = held_map.get(id(stmt), EMPTY_LOCKS)
            escape = self._escape_for(stmt)
            ctx = _StmtCtx(fn=fn, cls=cls, held=held, escape=escape,
                           consumed=set())
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    lock = resolve(item.context_expr)
                    if lock is not None:
                        fn.acquires.append(AcquireSite(
                            lock=lock, line=stmt.lineno, func=fn.qualname,
                            held=held, in_nested=fn.is_nested,
                            escape_reason=escape))
            for expr in _stmt_exprs(stmt):
                self._walk_expr(expr, ctx, awaited=False, nested=fn.is_nested,
                                held=held)

    def _escape_for(self, stmt: ast.stmt) -> Optional[str]:
        for directive in self.harvest.attached.get(id(stmt), ()):
            if directive.verb == "unguarded":
                return directive.reason
        return None

    # -- expressions ----------------------------------------------------
    def _walk_expr(self, node: ast.expr, ctx: "_StmtCtx", awaited: bool,
                   nested: bool, held: FrozenSet[LockId]) -> None:
        if isinstance(node, ast.Await):
            self._walk_expr(node.value, ctx, awaited=True, nested=nested,
                            held=held)
            return
        if isinstance(node, ast.Lambda):
            self._walk_expr(node.body, ctx, awaited=False, nested=True,
                            held=EMPTY_LOCKS)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, ctx, awaited, nested, held)
            self._walk_expr(node.func, ctx, awaited=awaited, nested=nested,
                            held=held)
            for arg in node.args:
                self._walk_expr(arg, ctx, awaited=awaited, nested=nested,
                                held=held)
            for keyword in node.keywords:
                self._walk_expr(keyword.value, ctx, awaited=awaited,
                                nested=nested, held=held)
            return
        if isinstance(node, (ast.Attribute, ast.Subscript)) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record_store(node, ctx, nested, held)
            # fall through to walk children (index exprs, value chain reads)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            target = self._recv_attr(node, ctx.cls)
            if target is not None and id(node) not in ctx.consumed:
                owner, attr = target
                ctx.fn.accesses.append(Access(
                    owner=owner, attr=attr, kind="read", line=node.lineno,
                    func=ctx.fn.qualname, held=held, in_nested=nested,
                    escape_reason=ctx.escape))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._walk_expr(child, ctx, awaited=awaited, nested=nested,
                                held=held)
            elif isinstance(child, ast.comprehension):
                self._walk_expr(child.iter, ctx, awaited=awaited,
                                nested=nested, held=held)
                for cond in child.ifs:
                    self._walk_expr(cond, ctx, awaited=awaited, nested=nested,
                                    held=held)

    def _recv_attr(self, node: ast.Attribute,
                   cls: Optional[str]) -> Optional[Tuple[str, str]]:
        """``(owner class, attr)`` for a direct self/cls/Class attribute."""
        base = node.value
        if not isinstance(base, ast.Name):
            return None
        if base.id in ("self", "cls"):
            return (cls, node.attr) if cls is not None else None
        if base.id in self.program.classes:
            return (base.id, node.attr)
        return None

    def _record_store(self, node: ast.expr, ctx: "_StmtCtx", nested: bool,
                      held: FrozenSet[LockId]) -> None:
        """Record the written attribute under a store/del target.

        Peels the ``.attr``/``[index]`` chain down to its base; if the base
        is ``self``/``cls``/an analyzed class, the first attribute applied
        to it is the one being (re)bound or mutated through.
        """
        chain: List[ast.expr] = []
        current: ast.expr = node
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            chain.append(current)
            current = current.value
        if not isinstance(current, ast.Name):
            return
        innermost = chain[-1]
        if not isinstance(innermost, ast.Attribute):
            return
        target = self._recv_attr(innermost, ctx.cls)
        if target is None:
            return
        owner, attr = target
        ctx.consumed.add(id(innermost))
        kind = "write" if node is innermost else "mutate"
        ctx.fn.accesses.append(Access(
            owner=owner, attr=attr, kind=kind, line=node.lineno,
            func=ctx.fn.qualname, held=held, in_nested=nested,
            escape_reason=ctx.escape))

    def _record_call(self, node: ast.Call, ctx: "_StmtCtx", awaited: bool,
                     nested: bool, held: FrozenSet[LockId]) -> None:
        func = node.func
        kind: Optional[str] = None
        callee = ""
        dotted: Optional[str] = None
        receiver_is_str = False
        if isinstance(func, ast.Name):
            kind, callee = "name", func.id
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                kind, callee = "self", func.attr
            elif isinstance(base, ast.Name) and base.id in self.program.classes:
                kind, callee = "class", f"{base.id}.{func.attr}"
            elif isinstance(base, ast.Name):
                kind, callee = "attr", func.attr
                dotted = f"{base.id}.{func.attr}"
            else:
                kind, callee = "attr", func.attr
                receiver_is_str = (isinstance(base, ast.Constant)
                                   and isinstance(base.value, str))
            # mutator calls write through the receiver attribute
            if (func.attr in MUTATOR_METHOD_NAMES
                    and isinstance(base, ast.Attribute)):
                target = self._recv_attr(base, ctx.cls)
                if target is not None:
                    owner, attr = target
                    ctx.consumed.add(id(base))
                    ctx.fn.accesses.append(Access(
                        owner=owner, attr=attr, kind="mutate",
                        line=node.lineno, func=ctx.fn.qualname, held=held,
                        in_nested=nested, escape_reason=ctx.escape))
        if kind is None:
            return
        ctx.fn.calls.append(CallSite(
            callee_kind=kind, callee=callee, line=node.lineno,
            func=ctx.fn.qualname, held=held, awaited=awaited,
            in_nested=nested, receiver_is_str=receiver_is_str, dotted=dotted,
            escape_reason=ctx.escape))


@dataclass
class _StmtCtx:
    fn: FunctionInfo
    cls: Optional[str]
    held: FrozenSet[LockId]
    escape: Optional[str]
    #: Attribute node ids already recorded as writes (suppress the read)
    consumed: Set[int]


def _iter_stmts(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """All statements in ``body``, not descending into nested defs."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for block in _nested_bodies(stmt):
            yield from _iter_stmts(block)


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expression children of one statement (child statements excluded)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child
        elif isinstance(child, ast.withitem):
            yield child.context_expr
            if child.optional_vars is not None:
                yield child.optional_vars


# ----------------------------------------------------------------------
# inventory
# ----------------------------------------------------------------------

def _build_inventory(program: Program,
                     declared_by_class: Dict[str, Dict[str, _DeclaredAttr]]
                     ) -> None:
    """Fill each lock-owning class's shared-attribute table.

    Shared = every attribute written outside ``__init__`` by any analyzed
    function, unioned with every directive-declared attribute.  Discipline
    comes from the declaration when present; otherwise the guard is inferred
    iff the class owns exactly one lock (more than one is an
    ``ambiguous-guard`` violation — the author must say which lock guards
    what).  A class that owns no lock but declares disciplines (the event
    loop confines ``QueryServer``'s state) is inventoried the same way; an
    attribute it writes outside ``__init__`` without declaring one has
    nothing to be guarded by, which is an ``unguarded-access``.
    """
    outside_writes: Dict[str, Dict[str, int]] = {}
    for fn in program.all_functions():
        for access in fn.accesses:
            if access.kind == "read":
                continue
            in_init = (fn.is_init and fn.cls == access.owner
                       and not access.in_nested)
            if in_init:
                continue
            attrs = outside_writes.setdefault(access.owner, {})
            attrs.setdefault(access.attr, access.line)
    for cls in program.classes.values():
        declared = declared_by_class.get(cls.name, {})
        if not cls.owns_lock and not declared:
            continue
        names = set(declared) | set(outside_writes.get(cls.name, {}))
        names -= set(cls.locks)
        for attr in sorted(names):
            decl = declared.get(attr)
            shared = SharedAttr(cls=cls.name, name=attr)
            if decl is not None:
                shared.guard = decl.guard
                shared.confined = decl.confined
                shared.init_only = decl.init_only
                shared.thread_local = decl.thread_local
                shared.synchronized = decl.synchronized
                shared.reason = decl.reason
                shared.decl_line = decl.line
                shared.guard_source = "declared"
                if shared.guard is not None and shared.guard not in cls.locks:
                    program.violations.append(Violation(
                        "bad-annotation", cls.path, decl.line,
                        f"{cls.name}.{attr}",
                        f"guarded-by({shared.guard}) names no lock of "
                        f"{cls.name}"))
            if (shared.guard is None and shared.confined is None
                    and not shared.init_only and not shared.thread_local
                    and not shared.synchronized):
                single = cls.single_lock()
                line = (outside_writes.get(cls.name, {}).get(attr)
                        or shared.decl_line or cls.line)
                if single is not None:
                    shared.guard = single
                    shared.guard_source = "inferred"
                elif not cls.owns_lock:
                    program.violations.append(Violation(
                        "unguarded-access", cls.path, line,
                        f"{cls.name}.{attr}",
                        f"{attr!r} is written outside __init__, but "
                        f"{cls.name} owns no lock and declares no "
                        "discipline for it"))
                else:
                    program.violations.append(Violation(
                        "ambiguous-guard", cls.path, line,
                        f"{cls.name}.{attr}",
                        f"{cls.name} owns {len(cls.locks)} locks; declare "
                        f"which one guards {attr!r} with "
                        "# concurrency: guarded-by(<lock>)"))
            cls.shared[attr] = shared
    # site counts for the report
    for fn in program.all_functions():
        for access in fn.accesses:
            cls_info = program.classes.get(access.owner)
            if cls_info is None:
                continue
            shared_attr = cls_info.shared.get(access.attr)
            if shared_attr is None:
                continue
            if access.kind == "read":
                shared_attr.read_sites += 1
            else:
                shared_attr.write_sites += 1
