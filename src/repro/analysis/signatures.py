"""Static signatures of every registered IR operation.

:mod:`repro.ir.ops` declares *what* an op is (name, effect, block count);
this module declares *how it is applied*: argument arity, the static
attributes the unparser and the lowerings rely on, the parameter count of
each nested block, and which argument (if any) is the mutable object a
writing op updates in place.  The type checker and the effect auditor
consume these instead of re-deriving per-op facts, and a completeness test
asserts that every op of the registry has a signature — adding an op
without declaring its shape is itself a verification failure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..ir import ops as ir_ops


@dataclass(frozen=True)
class OpSignature:
    """The statically checkable application shape of one IR op.

    Attributes:
        name: op name (must be registered in :mod:`repro.ir.ops`).
        n_args: exact argument count, or ``None`` for variadic ops (then
            ``min_args`` applies).
        min_args: minimum argument count for variadic ops.
        required_attrs: attribute keys that must be present (the unparser
            would ``KeyError`` without them).
        block_params: expected parameter count of each nested block, or
            ``None`` when the op carries no blocks.
        mutated_arg: index of the argument mutated in place by a writing op,
            or ``None``.  The effect auditor requires that argument to be a
            symbol bound to a mutable object, never a constant.
        shared_result: the result is a structure resident on the catalog
            and shared by every query, request and thread — read-only for
            generated code.  The effect auditor rejects any writing op whose
            mutated argument derives from such a result.
        category: coarse typing family used by the type checker
            (``"arith"``, ``"compare"``, ``"logic"``, ``"string"``, ...).
    """

    name: str
    n_args: Optional[int] = None
    min_args: int = 0
    required_attrs: Tuple[str, ...] = ()
    block_params: Optional[Tuple[int, ...]] = None
    mutated_arg: Optional[int] = None
    shared_result: bool = False
    category: str = "generic"


_SIGNATURES: Dict[str, OpSignature] = {}


def _sig(name: str, n_args: Optional[int] = None, *, min_args: int = 0,
         attrs: Tuple[str, ...] = (), blocks: Optional[Tuple[int, ...]] = None,
         mutated: Optional[int] = None, shared: bool = False,
         category: str = "generic") -> None:
    if name in _SIGNATURES:
        raise ValueError(f"signature for op {name!r} declared twice")
    if name not in ir_ops.REGISTRY:
        raise ValueError(f"signature for unregistered op {name!r}")
    opdef = ir_ops.REGISTRY.get(name)
    declared_blocks = 0 if blocks is None else len(blocks)
    if opdef.n_blocks is not None and opdef.n_blocks != declared_blocks:
        raise ValueError(
            f"signature for {name!r} declares {declared_blocks} block(s), "
            f"the op registry declares {opdef.n_blocks}")
    _SIGNATURES[name] = OpSignature(name, n_args, min_args=min_args,
                                    required_attrs=attrs, block_params=blocks,
                                    mutated_arg=mutated, shared_result=shared,
                                    category=category)


# -- pure scalar ops --------------------------------------------------------
for _name in ("add", "sub", "mul", "div"):
    _sig(_name, 2, category="arith")
_sig("neg", 1, category="arith")
for _name in ir_ops.COMPARISON_OPS:
    _sig(_name, 2, category="compare")
for _name in ("and_", "or_", "band", "bor"):
    _sig(_name, 2, category="logic")
_sig("not_", 1, category="logic")
_sig("year_of_date", 1, category="convert")

# -- strings ----------------------------------------------------------------
_sig("str_contains", 2, category="string")
_sig("str_startswith", 2, category="string")
_sig("str_endswith", 2, category="string")
_sig("str_like", 1, attrs=("pattern",), category="string")
_sig("str_substr", 1, attrs=("start", "length"), category="string")
_sig("str_in", 1, attrs=("values",), category="string")

# -- tuples -----------------------------------------------------------------
_sig("tuple_new", None, category="tuple")
_sig("tuple_get", 1, attrs=("index",), category="tuple")

# -- control flow -----------------------------------------------------------
_sig("if_", 1, blocks=(0, 0), category="control")
_sig("for_range", 2, blocks=(1,), category="control")
_sig("while_", 0, blocks=(0, 0), category="control")

# -- mutable variables ------------------------------------------------------
_sig("var_new", 1, category="var")
_sig("var_read", 1, category="var")
_sig("var_write", 2, mutated=0, category="var")

# -- records ----------------------------------------------------------------
_sig("record_new", None, attrs=("fields",), category="record")
_sig("record_get", 1, attrs=("field",), category="record")

# -- arrays -----------------------------------------------------------------
_sig("array_new", 1, category="array")
_sig("array_get", 2, category="array")
_sig("array_set", 3, mutated=0, category="array")

# -- lists ------------------------------------------------------------------
_sig("list_new", 0, category="list")
_sig("list_append", 2, mutated=0, category="list")
_sig("list_foreach", 1, blocks=(1,), category="control")
_sig("list_sort_by_fields", 1, attrs=("keys",), category="list")
_sig("list_take", 2, category="list")

# -- generic hash containers ------------------------------------------------
_sig("mmap_new", 0, category="map")
_sig("mmap_add", 3, mutated=0, category="map")
_sig("mmap_get", 2, category="map")
_sig("hashmap_agg_new", 0, attrs=("aggs",), category="map")
_sig("hashmap_agg_update", None, min_args=2, mutated=0, category="map")
_sig("hashmap_agg_foreach", 1, blocks=(2,), category="control")

# -- database access --------------------------------------------------------
_sig("table_size", 1, attrs=("table",), category="db")
_sig("table_column", 1, attrs=("table", "column"), shared=True, category="db")

# -- specialised structures -------------------------------------------------
_sig("dense_agg_new", 1, attrs=("aggs",), category="map")
_sig("dense_agg_update", None, min_args=2, mutated=0, category="map")
_sig("dense_agg_foreach", 1, blocks=(2,), category="control")
_sig("strdict_build", 1, category="strdict")
_sig("strdict_encode_column", 2, category="strdict")
_sig("strdict_code", 2, category="strdict")
_sig("strdict_prefix_range", 2, category="strdict")

# -- catalog-resident access layer ------------------------------------------
_sig("access_pruned_indices", 1, attrs=("table", "filters"), shared=True,
     category="access")
_sig("access_partition", 1, attrs=("table", "column", "key_lo", "key_hi"),
     shared=True, category="access")
_sig("access_strdict", 1, attrs=("table", "column"), shared=True,
     category="access")
_sig("access_strdict_codes", 1, attrs=("table", "column"), shared=True,
     category="access")
_sig("access_prefix_range", 2, category="access")

# -- output -----------------------------------------------------------------
_sig("print_", 1, category="output")


def signature_of(op_name: str) -> OpSignature:
    """Signature of a registered op (``KeyError`` for unknown ops)."""
    try:
        return _SIGNATURES[op_name]
    except KeyError:
        raise KeyError(
            f"no static signature declared for IR op {op_name!r}; "
            "add one in repro.analysis.signatures") from None


def has_signature(op_name: str) -> bool:
    return op_name in _SIGNATURES


def undeclared_ops() -> Tuple[str, ...]:
    """Registered ops without a signature (must stay empty; see tests)."""
    return tuple(sorted(ir_ops.REGISTRY.names() - set(_SIGNATURES)))
