"""The reference gate: a public definition in ``src/`` has a caller.

The twin of ``tests/ir/test_vocabulary.py`` (an op exists because a stack
emits it) and ``tests/stack/test_every_pass_fires.py`` (a pass exists because
it fires), for definitions.  It covers every module-level function, class and
assignment under ``src/repro`` and every method of a module-level class;
names that start with ``_`` are private and exempt.  Each covered name must
appear as an identifier-shaped token somewhere other than a definition of
that name, in a ``.py`` file under ``src/``, ``servebench/``, ``benchmarks/``
or ``examples/`` — two unused methods of one name do not vouch for each
other.  A mention under ``tests/`` does not count: a test is not a caller,
and a helper only tests reach belongs in ``tests/`` or nowhere.

A mention is a name token of the code, or an identifier-shaped word inside
a string literal that is not a docstring: the unparser calls ``_rt.*``
runtime helpers from inside f-strings, which the code's names would not
show.  A comment or a docstring is not a caller, so a mention there does not
count; a re-export in an ``__init__`` does.

Some passes stay although no planned TPC-H query makes them fire, and that
is deliberate: ``UnusedFieldRemoval`` is in stacks, and Table 4 counts its
module (``bench/loc.py::TABLE4_COMPONENTS``).  The few names only tests
reach that stay on purpose are listed in :data:`EXEMPT`, each with its
reason; an exemption that something outside ``tests/`` (other than a
definition or an ``__init__`` re-export) has come to mention must go.
"""
import ast
import functools
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "servebench", "benchmarks", "examples")
TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Names kept in ``src/`` although only tests (or only a package's
#: ``__init__``) mention them.
EXEMPT = {
    "is_null": "plan-writing DSL constructor of IsNull, which every engine "
               "evaluates; the TPC-H plans just never test for NULL",
    "EngineFault": "fault-plan vocabulary: the exception a FaultSpec raises "
                   "to stand for an engine failure",
    "make_program": "IR-writing constructor: the way a Program is assembled "
                    "from built blocks",
    "reset_symbol_counter": "determinism seam: symbol names come from a "
                            "process-wide counter, and comparing generated "
                            "source byte for byte needs it reset",
    "health": "lifecycle probe: the server's liveness answer, which a "
              "process supervisor reads and no in-process caller does",
    "readiness": "lifecycle probe: whether new requests are admitted now, "
                 "which a load balancer reads and no in-process caller does",
    "exact_order": "the row-order-preserving planner preset the parity "
                   "suites and ROADMAP direction 2 compare the full rule "
                   "set against",
    "prune_candidates": "the sample-gated candidate list, which the pruning "
                        "suites test apart from pruned_indices' fallback to "
                        "every row",
}


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


def _docstrings(tree):
    """The ``(line, column)`` starts of the docstrings of one module."""
    owners = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {(first.lineno, first.col_offset) for first in
            (owner.body[0] for owner in owners if owner.body)
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)}


#: the token kinds whose text is string content (f-string pieces on 3.12+)
STRING_KINDS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}


def _mentions(source):
    """``(line, name)`` of each mention in one file: a name token, or an
    identifier-shaped word in a string literal that is not a docstring."""
    docstrings = _docstrings(ast.parse(source))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            yield token.start[0], token.string
        elif token.type in STRING_KINDS and token.start not in docstrings:
            for name in TOKEN.findall(token.string):
                yield token.start[0], name


def _tokens(skip_init=False):
    """``(path, line, name) -> occurrences`` over the searched files."""
    tokens = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if skip_init and path.name == "__init__.py":
                continue
            for line_no, name in _mentions(path.read_text()):
                tokens[path, line_no, name] += 1
    return tokens


def _covered():
    """``(path, line, name) -> definitions there`` of every covered name."""
    definitions = Counter()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name, line_no in _definitions(ast.parse(path.read_text())):
            if not name.startswith("_"):
                definitions[path, line_no, name] += 1
    return definitions


@functools.lru_cache(maxsize=None)
def unreferenced(skip_init=False):
    """``path:line name`` of each covered definition with no other mention."""
    tokens, definitions = _tokens(skip_init), _covered()
    totals = Counter()          # name -> occurrences anywhere
    for (_, _, name), count in tokens.items():
        totals[name] += count
    defined_at = Counter()      # name -> mentions that are definitions
    for (path, line_no, name), count in definitions.items():
        defined_at[name] += min(count, tokens[path, line_no, name])
    return [f"{path.relative_to(ROOT)}:{line_no} {name}"
            for (path, line_no, name) in sorted(definitions)
            if totals[name] <= defined_at[name]]


def test_a_comment_or_docstring_mentions_nothing():
    source = ('"""Module text names alpha."""\n'
              '# a comment names beta\n'
              'def g(y):\n'
              '    """Function text names epsilon."""\n'
              '    return f"{_rt.gamma(y)}" + "delta"\n')
    names = {name for _, name in _mentions(source)}
    assert {"g", "y", "_rt", "gamma", "delta"} <= names
    assert not {"alpha", "beta", "epsilon"} & names


def test_every_public_definition_in_src_is_referenced():
    found = [entry for entry in unreferenced()
             if entry.split()[-1] not in EXEMPT]
    assert not found, ("defined in src/ and named nowhere else outside tests/:\n"
                       + "\n".join(found))


@pytest.mark.parametrize("name", sorted(EXEMPT))
def test_every_exemption_is_still_needed(name):
    """An exempt name is one only a definition or an ``__init__`` re-export
    mentions outside ``tests/``."""
    needed = {entry.split()[-1] for entry in unreferenced(skip_init=True)}
    assert name in needed, f"{name} has a caller now; drop its exemption"
