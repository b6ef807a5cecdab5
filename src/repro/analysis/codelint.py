"""``ast``-level lint of the unparser's generated Python, run before ``exec``.

The unparser's contract is narrow: a module holding ``prepare(db, _rt)`` and
``query(db, _rt, aux)`` whose only free names are a handful of whitelisted
builtins, whose runtime services all flow through the ``_rt`` parameter, and
whose depth-0 loops route their heads through the resource governor
(``_rt.governed_range`` / ``_rt.governed_iter``).  Because the module is
``exec``'d, a violation is not a style problem — a stray free name resolves
against whatever happens to be importable, and an ungoverned top-level loop
escapes the row-budget accounting the execution-hardening layer relies on.

Checked invariants:

* the source parses, and its top level contains only function definitions
  (plus the docstring);
* every function takes a ``_rt`` parameter, and nothing ever *assigns* to
  ``_rt`` (no shadowing the runtime handle);
* no import statements — the runtime surface is exactly ``_rt``;
* every free name of every function is a whitelisted builtin;
* every ``for`` loop at loop-nesting depth 0 iterates a governor call.
"""
from __future__ import annotations

import ast
from typing import Iterable, Optional, Sequence, Set

from .errors import VerificationError

#: builtins the emission rules are allowed to reference
ALLOWED_BUILTINS = frozenset({
    "len", "min", "max", "float", "int", "range", "print", "set",
})

#: attribute names on ``_rt`` that satisfy the depth-0 loop-governor rule
_GOVERNOR_HOOKS = frozenset({"governed_range", "governed_iter"})


def _err(message: str, binding: Optional[str] = None) -> VerificationError:
    return VerificationError(message, check="codelint", binding=binding)


def lint_source(source: str, phase: Optional[str] = None) -> None:
    """Lint one generated module; raises :class:`VerificationError`."""
    try:
        _lint(source)
    except VerificationError as exc:
        raise exc.with_phase(phase) if phase else exc from None


def _lint(source: str) -> None:
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise _err(f"generated source does not parse: {exc.msg} "
                   f"(line {exc.lineno})") from None
    functions = []
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            functions.append(node)
        elif isinstance(node, ast.Expr) and isinstance(node.value,
                                                       ast.Constant):
            continue  # module docstring
        else:
            raise _err(
                "generated module may only contain function definitions, "
                f"found {type(node).__name__} at line {node.lineno}")
    if not functions:
        raise _err("generated module defines no functions")
    for function in functions:
        _lint_function(function)


def _lint_function(function: ast.FunctionDef) -> None:
    params = [arg.arg for arg in function.args.args]
    if "_rt" not in params:
        raise _err(f"function {function.name} does not take the _rt runtime "
                   "parameter", binding=function.name)
    _check_no_imports(function)
    _check_rt_not_shadowed(function)
    _check_free_names(function, params)
    _check_governed_loops(function.body, depth=0, where=function.name)


def _check_no_imports(function: ast.FunctionDef) -> None:
    for node in ast.walk(function):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            raise _err(
                f"function {function.name} contains an import at line "
                f"{node.lineno} — generated code must reach the runtime "
                "only through _rt", binding=function.name)


def _stored_names(function: ast.FunctionDef) -> Set[str]:
    stored: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                     (ast.Store, ast.Del)):
            stored.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)) \
                and node is not function:
            stored.update(arg.arg for arg in node.args.args)
    return stored


def _check_rt_not_shadowed(function: ast.FunctionDef) -> None:
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id == "_rt" \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            raise _err(
                f"function {function.name} assigns to _rt at line "
                f"{node.lineno} — the runtime handle must never be "
                "shadowed", binding="_rt")
        if isinstance(node, (ast.FunctionDef, ast.Lambda)) \
                and node is not function:
            if any(arg.arg == "_rt" for arg in node.args.args):
                raise _err(
                    f"a nested function inside {function.name} rebinds "
                    "_rt as a parameter", binding="_rt")


def _check_free_names(function: ast.FunctionDef,
                      params: Iterable[str]) -> None:
    bound = set(params) | _stored_names(function)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
            if name in bound or name in ALLOWED_BUILTINS:
                continue
            raise _err(
                f"function {function.name} references the free name "
                f"{name!r} at line {node.lineno}; generated code may only "
                "use its parameters, its own bindings, and the builtin "
                f"whitelist {sorted(ALLOWED_BUILTINS)}", binding=name)


def _check_governed_loops(stmts: Sequence[ast.stmt], depth: int,
                          where: str) -> None:
    for node in stmts:
        if isinstance(node, ast.For):
            if depth == 0 and not _is_governed(node.iter):
                raise _err(
                    f"depth-0 for-loop at line {node.lineno} of {where} "
                    "does not iterate a governor hook (_rt.governed_range "
                    "/ _rt.governed_iter) — it escapes the deadline",
                    binding=where)
            _check_governed_loops(node.body, depth + 1, where)
            _check_governed_loops(node.orelse, depth + 1, where)
        elif isinstance(node, ast.While):
            _check_governed_loops(node.body, depth + 1, where)
            _check_governed_loops(node.orelse, depth + 1, where)
        elif isinstance(node, ast.If):
            _check_governed_loops(node.body, depth, where)
            _check_governed_loops(node.orelse, depth, where)
        elif isinstance(node, (ast.With, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    _check_governed_loops([child], depth, where)


def _is_governed(iterator: ast.expr) -> bool:
    return (isinstance(iterator, ast.Call)
            and isinstance(iterator.func, ast.Attribute)
            and isinstance(iterator.func.value, ast.Name)
            and iterator.func.value.id == "_rt"
            and iterator.func.attr in _GOVERNOR_HOOKS)
