"""The structural fingerprint of an ANF program — the paper's "no
structurally different code".

The fixed-point driver of :mod:`repro.stack.transformation` does not
fingerprint anything to find its fixed point (a pass that changes nothing
returns its input); the verifier uses the fingerprint to hold passes to that
contract.
"""
from __future__ import annotations

from .nodes import Atom, Block, Program, Sym


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
