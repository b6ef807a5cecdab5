"""Front-end DSLs: scalar expressions, the QPlan algebra and the QMonad collection DSL."""
from . import aggregates, expr, expr_compile, qmonad, qplan

__all__ = ["aggregates", "expr", "expr_compile", "qmonad", "qplan"]
