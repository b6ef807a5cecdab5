"""The reference gate: a public definition in ``src/`` is referenced.

The twin of ``tests/ir/test_vocabulary.py`` (an op exists because a stack
emits it) and ``tests/stack/test_every_pass_fires.py`` (a pass exists because
it fires), for definitions.  It covers every module-level function, class and
assignment under ``src/repro`` and every method of a module-level class;
names that start with ``_`` are private and exempt.  Each covered name must
appear as an identifier-shaped token somewhere other than a definition of
that name, in a ``.py`` file under ``src/``, ``tests/``, ``servebench/``,
``benchmarks/`` or ``examples/`` — two unused methods of one name do not
vouch for each other.

The match is on text, not on AST names: the unparser calls ``_rt.*`` runtime
helpers from inside f-strings, which an AST scan would not see.  A mention in
a comment or string therefore counts, and so does a re-export in an
``__init__``.

Some passes stay although no planned TPC-H query makes them fire, and that
is deliberate: ``UnusedFieldRemoval`` is in stacks, and Table 4 counts its
module (``bench/loc.py::TABLE4_COMPONENTS``).  Helpers only tests call
(``Catalog.register_rows``, ``storage/loader.py::load_directory``) pass as
well: a test is a reference.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "servebench", "benchmarks", "examples")
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _definitions(tree):
    """(name, line) of each covered definition of one module."""
    def assigned(node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, name.lineno

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, member.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from assigned(node)


def unreferenced():
    """``path:line name`` of each covered definition with no other mention."""
    tokens = Counter()          # (path, line, name) -> occurrences
    totals = Counter()          # name -> occurrences anywhere
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line_no, line in enumerate(path.read_text().splitlines(), 1):
                for name in TOKEN.findall(line):
                    tokens[path, line_no, name] += 1
                    totals[name] += 1

    definitions = Counter()     # (path, line, name) -> definitions there
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name, line_no in _definitions(ast.parse(path.read_text())):
            if not name.startswith("_"):
                definitions[path, line_no, name] += 1

    defined_at = Counter()      # name -> mentions that are definitions
    for (path, line_no, name), count in definitions.items():
        defined_at[name] += min(count, tokens[path, line_no, name])
    return [f"{path.relative_to(ROOT)}:{line_no} {name}"
            for (path, line_no, name) in sorted(definitions)
            if totals[name] <= defined_at[name]]


def test_every_public_definition_in_src_is_referenced():
    found = unreferenced()
    assert not found, "defined in src/ and named nowhere else:\n" + "\n".join(found)
