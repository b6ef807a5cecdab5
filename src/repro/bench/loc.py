"""Lines-of-code accounting for the productivity evaluation (Table 4).

The paper argues that the multi-level architecture keeps individual
transformations small (Table 4 lists a few hundred lines each).  This module
measures the same quantity for this repository: non-blank, non-comment lines
of every transformation module and of the supporting compiler components.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro


@dataclass
class LocEntry:
    name: str
    module: str
    lines: int


#: The transformations reported in Table 4 of the paper, mapped to the modules
#: implementing the equivalent functionality here.
TABLE4_COMPONENTS: Tuple[Tuple[str, str], ...] = (
    ("Column store / data layout transformer", "transforms/rowvals.py"),
    ("Automatic index inference & partitioning", "transforms/hashmap_specialization.py"),
    ("Memory allocation hoisting", "transforms/memory_hoisting.py"),
    ("Pipelining (push engine) for QPlan", "transforms/pipelining.py"),
    ("Pipelining (shortcut fusion) for QMonad", "transforms/fusion.py"),
    ("Scalar expression compilation", "transforms/scalar_compiler.py"),
    ("Constant folding / partial evaluation", "transforms/folding.py"),
    ("Unused struct field removal", "transforms/field_removal.py"),
    ("Dead code elimination", "transforms/dce.py"),
    ("String dictionaries", "transforms/string_dictionary.py"),
    ("Hash-table specialization", "transforms/hashmap_specialization.py"),
    ("List specialization (unique keys)", "transforms/list_specialization.py"),
    ("Scala-constructs-to-C (unparser to Python)", "codegen/unparser.py"),
)


def count_loc(path: str) -> int:
    """Count non-blank, non-comment source lines of one Python file."""
    if not os.path.exists(path):
        return 0
    lines = 0
    in_docstring = False
    delimiter = None
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if in_docstring:
                if delimiter in line:
                    in_docstring = False
                continue
            if line.startswith("#"):
                continue
            if line.startswith(('"""', "'''")):
                delimiter = line[:3]
                if line.count(delimiter) == 1:
                    in_docstring = True
                continue
            lines += 1
    return lines


def package_root() -> str:
    return os.path.dirname(os.path.abspath(repro.__file__))


def table4() -> List[LocEntry]:
    """Lines of code of every transformation component (the Table 4 data)."""
    root = package_root()
    entries: List[LocEntry] = []
    for name, relative in TABLE4_COMPONENTS:
        entries.append(LocEntry(name=name, module=relative,
                                lines=count_loc(os.path.join(root, relative))))
    return entries


def loc_by_package() -> Dict[str, int]:
    """Total lines of code per sub-package of the library."""
    root = package_root()
    totals: Dict[str, int] = {}
    for dirpath, _, filenames in os.walk(root):
        package = os.path.relpath(dirpath, root)
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            key = package.split(os.sep)[0] if package != "." else "(top level)"
            totals[key] = totals.get(key, 0) + count_loc(os.path.join(dirpath, filename))
    return dict(sorted(totals.items()))


def format_table4(entries: Optional[List[LocEntry]] = None) -> str:
    entries = entries if entries is not None else table4()
    width = max(len(e.name) for e in entries) + 2
    lines = [f"{'Transformation'.ljust(width)}LoC"]
    for entry in entries:
        lines.append(f"{entry.name.ljust(width)}{entry.lines}")
    lines.append(f"{'Total'.ljust(width)}{sum(e.lines for e in entries)}")
    return "\n".join(lines)
