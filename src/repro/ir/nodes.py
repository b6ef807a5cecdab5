"""ANF intermediate representation shared by all imperative DSL levels.

The paper (Section 3.3) argues that plain ASTs are not a sufficient IR once
the language has variable bindings and mutation, and settles on
administrative normal form (ANF): every sub-expression is bound to an
immutable local symbol, and operators only take constants or symbols as
arguments.  This module defines the data structures of that IR:

* :class:`Sym` — an immutable local binding (``val x1 = ...`` in the paper),
* :class:`Const` — a literal constant,
* :class:`Expr` — one operation applied to atoms, possibly carrying nested
  :class:`Block`s for control flow (loops, conditionals, lambdas),
* :class:`Stmt` — a binding of an expression to a symbol,
* :class:`Block` — a sequence of statements plus a result atom.

The same IR data structure is reused by every abstraction level of the stack;
what changes between levels is the *vocabulary of operations* allowed
(see :mod:`repro.stack.language`), exactly as footnote 6 of the paper
describes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from .types import Type, UNKNOWN

_sym_counter = itertools.count(1)


def reset_symbol_counter() -> None:
    """Reset the global symbol counter (used by tests for deterministic output)."""
    global _sym_counter
    _sym_counter = itertools.count(1)


@dataclass(eq=False)
class Sym:
    """A unique, immutable symbol bound by exactly one statement.

    Symbols use identity semantics: two symbols are equal only if they are the
    same binding.  The numeric id makes printed programs stable and readable
    (``x1``, ``x2``, ...).
    """

    hint: str = "x"
    type: Type = UNKNOWN
    id: int = field(default_factory=lambda: next(_sym_counter))

    @property
    def name(self) -> str:
        return f"{self.hint}{self.id}"

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(self.id)


@dataclass(frozen=True)
class Const:
    """A literal constant atom."""

    value: Any
    type: Type = UNKNOWN

    def __repr__(self) -> str:
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


#: Atoms are the only things operators may take as arguments in ANF.
Atom = Union[Sym, Const]


def is_atom(value: Any) -> bool:
    return isinstance(value, (Sym, Const))


@dataclass
class Block:
    """A sequence of ANF statements ending in a result atom."""

    stmts: List["Stmt"] = field(default_factory=list)
    result: Atom = Const(None)
    params: Tuple[Sym, ...] = ()

    def __iter__(self):
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)

    def bound_syms(self) -> List[Sym]:
        return [stmt.sym for stmt in self.stmts]


@dataclass
class Expr:
    """One IR operation: an op name applied to atom arguments.

    Attributes:
        op: the operation name; must be registered in :mod:`repro.ir.ops`.
        args: atom arguments (symbols or constants).
        attrs: static attributes that are part of the instruction itself and
            are known at compile time (field names, record types, layout
            choices, ...).  They never reference symbols.
        blocks: nested blocks for control-flow / higher-order ops (loop
            bodies, branch arms, lambda bodies).
        type: result type of the expression.
    """

    op: str
    args: Tuple[Atom, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)
    blocks: Tuple[Block, ...] = ()
    type: Type = UNKNOWN

    def cse_key(self) -> Optional[Tuple]:
        """A hashable structural key used for hash-consing pure expressions.

        Expressions carrying nested blocks are never shared, so they have no
        key.  Attribute values must be hashable for the expression to be
        shareable; otherwise the expression is simply not CSE'd.
        """
        if self.blocks:
            return None
        arg_key = tuple(
            ("sym", a.id) if isinstance(a, Sym) else ("const", a.value, repr(a.type))
            for a in self.args
        )
        try:
            attr_key = tuple(sorted((k, _hashable(v)) for k, v in self.attrs.items()))
        except TypeError:
            return None
        return (self.op, arg_key, attr_key)

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.attrs.items()]
        inner = ", ".join(parts)
        suffix = f" [{len(self.blocks)} block(s)]" if self.blocks else ""
        return f"{self.op}({inner}){suffix}"


def _hashable(value: Any) -> Any:
    """Best-effort conversion of attribute values to hashable keys."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_hashable(v) for v in value))
    hash(value)
    return value


@dataclass
class Stmt:
    """A single ANF statement: ``val sym = expr``."""

    sym: Sym
    expr: Expr

    def __repr__(self) -> str:
        return f"val {self.sym!r} = {self.expr!r}"


@dataclass
class Program:
    """A whole ANF program: a top-level block plus its input parameters.

    Programs at the imperative levels take the loaded database as parameter.
    The ``hoisted`` block holds statements moved to data-loading time by the
    domain-specific code-motion transformations of the paper (index inference,
    string dictionaries, memory-allocation hoisting, data-structure
    initialisation hoisting); symbols it binds are visible to ``body``.
    """

    body: Block
    params: Tuple[Sym, ...] = ()
    language: str = ""
    hoisted: Block = field(default_factory=Block)

    def all_blocks(self) -> Tuple[Block, Block]:
        return (self.hoisted, self.body)

    def __repr__(self) -> str:
        return (f"Program(language={self.language!r}, params={list(self.params)!r}, "
                f"hoisted={len(self.hoisted.stmts)}, stmts={len(self.body.stmts)})")
