"""The ANF intermediate representation shared by every imperative DSL level."""
from .builder import IRBuilder, make_program
from .effects import Effect, PURE, READ, WRITE, ALLOC, IO, CONTROL
from .nodes import Atom, Block, Const, Expr, Program, Stmt, Sym, reset_symbol_counter
from .ops import REGISTRY, effect_of, is_registered
from .pretty import fingerprint
from . import types

__all__ = [
    "IRBuilder", "make_program",
    "Effect", "PURE", "READ", "WRITE", "ALLOC", "IO", "CONTROL",
    "Atom", "Block", "Const", "Expr", "Program", "Stmt", "Sym", "reset_symbol_counter",
    "REGISTRY", "effect_of", "is_registered",
    "fingerprint", "types",
]
