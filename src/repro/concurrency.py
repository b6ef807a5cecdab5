"""The runtime half of the repo's concurrency contract vocabulary.

The static analyzer in :mod:`repro.analysis.concurrency` checks the lock
discipline of the serving substrate (server, robustness, compiler, access
layer and its derived cache).  Intent is declared in two ways:

* the :func:`guarded_by` decorator, for *methods* whose whole body runs with
  a lock already held by every caller (the analyzer seeds the method's
  held-lock set with the named lock and then checks every call site actually
  holds it);
* ``# concurrency: ...`` comment directives, for *attributes* and
  *functions* (parsed by :mod:`repro.analysis.concurrency.annotations`):

  ====================================  =====================================
  directive                             meaning
  ====================================  =====================================
  ``guarded-by(_lock)``                 attribute accesses must hold ``_lock``
  ``init-only``                         attribute is never written after
                                        ``__init__``
  ``confined(event-loop): reason``      attribute is written only from the
                                        event loop (async methods or
                                        ``runs-on(event-loop)`` methods)
  ``confined(startup): reason``         attribute is written only during
                                        single-threaded warm-up
                                        (``runs-on(startup)`` methods)
  ``thread-local``                      attribute holds per-thread state
                                        (also inferred from
                                        ``threading.local()``)
  ``synchronized``                      attribute holds an internally-locked
                                        object; calling/mutating it is safe
                                        anywhere, but rebinding the
                                        attribute itself is a violation
  ``runs-on(event-loop)``               sync method that must only be called
                                        from event-loop context
  ``runs-on(startup)``                  method that runs before serving
                                        starts (may write ``confined(startup)``
                                        attributes)
  ``unguarded: reason``                 per-statement escape hatch, recorded
                                        in the analyzer's JSON report
  ``blocking``                          function may block (joins the
                                        blocking-under-lock registry)
  ====================================  =====================================

This module is a dependency-free leaf so every runtime layer can import the
decorator without pulling in the analysis package.
"""
from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)

#: attribute the decorator stamps onto the function object; the analyzer
#: recognises the decorator syntactically, this is for runtime introspection
GUARDED_BY_ATTR = "__concurrency_guarded_by__"


def guarded_by(lock_name: str) -> Callable[[_F], _F]:
    """Declare that every caller of the decorated method holds ``lock_name``.

    A no-op at runtime (beyond stamping :data:`GUARDED_BY_ATTR`); the static
    analyzer enforces both directions of the contract: the method body is
    analyzed with the lock held, and every call site is checked to actually
    hold it.  Apply *under* ``@classmethod`` so it decorates the plain
    function::

        @classmethod
        @guarded_by("_lock")
        def _trim_all(cls) -> None: ...
    """
    def decorate(func: _F) -> _F:
        setattr(func, GUARDED_BY_ATTR, lock_name)
        return func
    return decorate
