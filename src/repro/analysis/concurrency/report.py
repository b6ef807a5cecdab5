"""Orchestration: load the target modules, collect, check, report.

:func:`analyze_tree` is the library entry point (the CLI in
``__main__`` and the test suites call it).  ``overrides`` maps a display
path (``src/repro/...``) to replacement source text — the mutation suite
uses it to re-analyze the tree with a seeded discipline break without
touching the working copy.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .checks import LockOrderResult, run_checks
from .collect import Program, collect
from .model import Violation

#: what the analyzer points at by default: every runtime module that owns a
#: lock or runs on the serving threads
DEFAULT_TARGETS: Sequence[str] = (
    "server",
    "robustness",
    "codegen/compiler.py",
    "storage/access.py",
    "storage/derived.py",
)

_DISPLAY_PREFIX = "src/repro/"


def _package_root() -> Path:
    """The ``src/repro`` directory this module is installed under."""
    return Path(__file__).resolve().parents[2]


def load_sources(targets: Optional[Sequence[str]] = None,
                 overrides: Optional[Dict[str, str]] = None
                 ) -> Dict[str, str]:
    """Display path (``src/repro/...``) → source text for every target."""
    root = _package_root()
    paths: List[Path] = []
    for target in (targets if targets else DEFAULT_TARGETS):
        candidate = root / target
        if candidate.is_dir():
            paths.extend(sorted(candidate.rglob("*.py")))
        elif candidate.is_file():
            paths.append(candidate)
        else:
            raise FileNotFoundError(
                f"analysis target {target!r} not found under {root}")
    sources: Dict[str, str] = {}
    for path in paths:
        display = _DISPLAY_PREFIX + path.relative_to(root).as_posix()
        sources[display] = path.read_text(encoding="utf-8")
    for key, text in (overrides or {}).items():
        if key not in sources:
            raise KeyError(
                f"override {key!r} matches no analyzed module "
                f"(have: {sorted(sources)})")
        sources[key] = text
    return sources


@dataclass
class AnalysisReport:
    """Everything one run produced; serializes to the CI artifact."""

    targets: List[str]
    program: Program
    lock_order: LockOrderResult
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, object]:
        classes = []
        locks = 0
        shared = 0
        for name in sorted(self.program.classes):
            cls = self.program.classes[name]
            if not cls.owns_lock:
                continue
            locks += len(cls.locks)
            shared += len(cls.shared)
            classes.append({
                "class": cls.name,
                "path": cls.path,
                "locks": [
                    {"name": decl.name, "reentrant": decl.reentrant,
                     "line": decl.line}
                    for decl in cls.locks.values()
                ],
                "shared": [cls.shared[attr].as_dict()
                           for attr in sorted(cls.shared)],
            })
        order = self.lock_order.as_dict()
        return {
            "tool": "repro.analysis.concurrency",
            "targets": list(self.targets),
            "summary": {
                "modules": len(self.program.modules),
                "lock_owning_classes": len(classes),
                "locks": locks,
                "shared_attrs": shared,
                "lock_order_edges": len(self.lock_order.edges),
                "lock_order_cycles": len(self.lock_order.cycles),
                "escapes": len(self.program.escapes),
                "violations": len(self.violations),
            },
            "classes": classes,
            "lock_order": order,
            "escapes": list(self.program.escapes),
            "violations": [violation.as_dict()
                           for violation in self.violations],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False) + "\n"


def analyze_tree(targets: Optional[Sequence[str]] = None,
                 overrides: Optional[Dict[str, str]] = None
                 ) -> AnalysisReport:
    """Run the full analyzer over the repo's own runtime source."""
    effective = list(targets) if targets else list(DEFAULT_TARGETS)
    sources = load_sources(effective, overrides)
    program = collect(sources)
    lock_order = run_checks(program)
    violations = sorted(
        program.violations, key=lambda v: (v.path, v.line, v.rule))
    return AnalysisReport(targets=effective, program=program,
                          lock_order=lock_order, violations=violations)
