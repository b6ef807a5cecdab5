"""Human-readable printing of ANF programs.

The printed form is also the structural fingerprint of a program — the
paper's "no structurally different code".  The fixed-point driver of
:mod:`repro.stack.transformation` does not print anything to find its fixed
point (a pass that changes nothing returns its input); the verifier uses the
fingerprint to hold passes to that contract.
"""
from __future__ import annotations

from typing import List

from .nodes import Atom, Block, Const, Program, Stmt, Sym

_INDENT = "  "


def atom_str(atom: Atom) -> str:
    if isinstance(atom, Sym):
        return atom.name
    if isinstance(atom, Const):
        return repr(atom.value)
    return repr(atom)


def stmt_str(stmt: Stmt) -> str:
    expr = stmt.expr
    parts = [atom_str(a) for a in expr.args]
    parts += [f"{key}={value!r}" for key, value in sorted(expr.attrs.items(), key=lambda kv: kv[0])]
    return f"val {stmt.sym.name} = {expr.op}({', '.join(parts)})"


def block_lines(block: Block, indent: int = 0) -> List[str]:
    lines: List[str] = []
    pad = _INDENT * indent
    if block.params:
        lines.append(f"{pad}params: {', '.join(p.name for p in block.params)}")
    for stmt in block.stmts:
        lines.append(pad + stmt_str(stmt))
        for i, nested in enumerate(stmt.expr.blocks):
            lines.append(f"{pad}{_INDENT}block[{i}]:")
            lines.extend(block_lines(nested, indent + 2))
    lines.append(f"{pad}result: {atom_str(block.result)}")
    return lines


def block_to_str(block: Block) -> str:
    return "\n".join(block_lines(block))


def program_to_str(program: Program) -> str:
    lines = [f"program [{program.language}] params({', '.join(p.name for p in program.params)})"]
    if program.hoisted.stmts:
        lines.append("hoisted (data-loading time):")
        lines.extend(block_lines(program.hoisted, 1))
    lines.append("body:")
    lines.extend(block_lines(program.body, 1))
    return "\n".join(lines)


def fingerprint(program: Program) -> str:
    """A structural fingerprint used to detect fixed points.

    Symbol identities are normalised away so that alpha-equivalent programs
    produce the same fingerprint.
    """
    mapping = {}

    def norm_atom(atom: Atom) -> str:
        if isinstance(atom, Sym):
            if atom.id not in mapping:
                mapping[atom.id] = f"s{len(mapping)}"
            return mapping[atom.id]
        return repr(atom.value)

    def norm_block(block: Block) -> str:
        parts = ["[" + ",".join(norm_atom(p) for p in block.params) + "]"]
        for stmt in block.stmts:
            expr = stmt.expr
            attrs = ";".join(f"{k}={v!r}" for k, v in sorted(expr.attrs.items()))
            nested = "|".join(norm_block(b) for b in expr.blocks)
            args = ",".join(norm_atom(a) for a in expr.args)
            parts.append(f"{norm_atom(stmt.sym)}={expr.op}({args};{attrs};{nested})")
        parts.append("->" + norm_atom(block.result))
        return "\n".join(parts)

    return norm_block(program.hoisted) + "\n====\n" + norm_block(program.body)
