"""QPlan: the physical query-plan DSL (the paper's algebraic front end).

QPlan programs are plain operator trees — the paper notes that an AST is a
sufficient IR for algebraic languages without variable bindings.  The operator
vocabulary covers what commercial engines provide and what the 22 TPC-H
queries need: scans, selections, projections, hash joins (inner, semi, anti,
outer; a constant key makes one a theta join or a cross product), group-by
aggregation, sorting, limits and bounded top-k (the planner's fusion of
``Limit`` over ``Sort``).

A QPlan tree is consumed by two kinds of client:

* the direct engines — the Volcano interpreter (:mod:`repro.engine.volcano`)
  and the vectorized engine (:mod:`repro.engine.vectorized`) — execute it as
  it stands, and
* the DSL stack lowers it through the intermediate languages
  (:mod:`repro.transforms.pipelining` and friends).  The single-step template
  expander is the stack configuration with exactly one lowering
  (``"template-expander"`` in :mod:`repro.stack.configs`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .aggregates import AGGREGATES
from .expr import Expr, columns_used, columns_used_with_sides, wrap


class PlanError(Exception):
    pass


#: Join kinds supported by the join operators.
JOIN_KINDS = ("inner", "leftsemi", "leftanti", "leftouter")

#: Aggregate kinds supported by AggSpec: those :mod:`repro.dsl.aggregates` states.
AGG_KINDS = tuple(AGGREGATES)


@dataclass(frozen=True, slots=True)
class AggSpec:
    """One aggregate of a group-by: ``name = kind(expr)``.

    ``expr`` is ``None`` for ``count(*)``.
    """

    kind: str
    expr: Optional[Expr]
    name: str

    def __post_init__(self) -> None:
        if self.kind not in AGG_KINDS:
            raise PlanError(f"unknown aggregate kind {self.kind!r}")
        if self.kind != "count" and self.expr is None:
            raise PlanError(f"aggregate {self.kind!r} requires an argument expression")


class Operator:
    """Base class of QPlan operators."""

    __slots__ = ()

    def children(self) -> Tuple["Operator", ...]:
        raise NotImplementedError

    def with_children(self, children: Sequence["Operator"]) -> "Operator":
        raise NotImplementedError

    def tree_repr(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self.describe()]
        for child in self.children():
            lines.append(child.tree_repr(indent + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return self.tree_repr()


@dataclass(repr=False, slots=True)
class Scan(Operator):
    """Full scan of a base relation.

    ``fields`` restricts which columns the scan materialises; ``None`` means
    every column of the table (the unused-field-removal optimization prunes
    this at the QPlan level).
    """

    table: str
    fields: Optional[Tuple[str, ...]] = None

    def children(self) -> Tuple[Operator, ...]:
        return ()

    def with_children(self, children: Sequence[Operator]) -> "Scan":
        return self

    def describe(self) -> str:
        fields = "*" if self.fields is None else ", ".join(self.fields)
        return f"Scan({self.table}: {fields})"


@dataclass(repr=False, slots=True)
class Select(Operator):
    """Filter rows by a predicate."""

    child: Operator
    predicate: Expr

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Operator]) -> "Select":
        return Select(children[0], self.predicate)

    def describe(self) -> str:
        return f"Select({self.predicate!r})"


@dataclass(repr=False, slots=True)
class PrunedScan(Select):
    """A filtered base-table scan with partition-pruning hints.

    Semantically identical to ``Select(Scan(table), predicate)`` — same rows,
    same values, same (scan) order — which is also how any consumer that only
    knows the parent operator executes it, since ``PrunedScan`` *is a*
    ``Select``; the Volcano interpreter, the reference, runs it exactly so.
    The vectorized engine and the compiled stacks additionally consult
    ``zone_filters``: the conjuncts of the predicate that compare one scan
    column against a literal, as ``(column, op, literal)`` triples with
    ``op`` drawn from :data:`PrunedScan.FILTER_OPS` (``prefix`` encodes
    ``LIKE 'p%'``).  The
    catalog's access layer turns those into skipped chunks (zone maps) or a
    candidate row slice (sorted-column partition pruning); the full predicate
    is still evaluated on every surviving row, so the hints can only skip
    rows the predicate would reject anyway.
    """

    #: operators a zone filter may carry
    FILTER_OPS = ("<", "<=", ">", ">=", "==", "prefix")

    zone_filters: Tuple[Tuple[str, str, object], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.child, Scan):
            raise PlanError("PrunedScan requires a Scan child")
        for entry in self.zone_filters:
            if len(entry) != 3 or entry[1] not in self.FILTER_OPS:
                raise PlanError(f"malformed zone filter {entry!r}")

    def with_children(self, children: Sequence[Operator]) -> "PrunedScan":
        return PrunedScan(children[0], self.predicate, self.zone_filters)

    def describe(self) -> str:
        zones = ", ".join(f"{column} {op} {value!r}"
                          for column, op, value in self.zone_filters)
        return f"PrunedScan({self.predicate!r}; zones=[{zones}])"


@dataclass(repr=False, slots=True)
class Project(Operator):
    """Compute (and rename) output columns: ``projections = [(name, expr), ...]``."""

    child: Operator
    projections: Tuple[Tuple[str, Expr], ...]

    def __post_init__(self) -> None:
        self.projections = tuple((name, wrap(expr)) for name, expr in self.projections)
        names = [name for name, _ in self.projections]
        if len(names) != len(set(names)):
            raise PlanError("duplicate output names in projection")

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Operator]) -> "Project":
        return Project(children[0], self.projections)

    def describe(self) -> str:
        return f"Project({', '.join(name for name, _ in self.projections)})"


@dataclass(repr=False, slots=True)
class HashJoin(Operator):
    """Equi hash join.

    The join builds a hash table on ``left_key`` over the left input and
    probes it with ``right_key`` for every right row.  ``kind`` selects the
    join flavour (inner / leftsemi / leftanti / leftouter, all with respect to
    the **left** input).  ``residual`` is an extra predicate evaluated on the
    pair of matching rows (with sided column references when names collide).
    With a constant key on both sides (``lit(0)``) every left row matches
    every right row, so the join is a theta join on ``residual`` — or, with
    no residual, a cross product.
    """

    left: Operator
    right: Operator
    left_key: Expr
    right_key: Expr
    kind: str = "inner"
    residual: Optional[Expr] = None

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.kind!r}")

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Operator]) -> "HashJoin":
        return HashJoin(children[0], children[1], self.left_key, self.right_key,
                        self.kind, self.residual)

    def describe(self) -> str:
        return f"HashJoin[{self.kind}]({self.left_key!r} = {self.right_key!r})"


@dataclass(repr=False, slots=True)
class IndexJoin(HashJoin):
    """A hash join whose build is a catalog-resident primary-key array.

    ``index_table.index_column`` names a unique, dense single-column primary
    key, for which the access layer (:mod:`repro.storage.access`) holds a
    load-time direct array.  The build side is a bare ``Scan`` of that table
    with ``left_key`` exactly the key column, so the array *is* the hash
    join's build: the vectorized engine and the compiled stacks probe it
    instead of building a per-query hash table and read a matching build row
    by position from the base columns.

    Because the key is unique, every bucket of the hash join this node
    replaces holds at most one row, and a bare scan's bucket order is its
    base order: the index build reproduces the hash join's emission order
    *exactly* — the rewrite is order- and value-preserving.  ``IndexJoin``
    *is a* ``HashJoin``, and every consumer runs it as one: the Volcano
    interpreter, the reference, as the plain per-query hash join; the
    vectorized engine through the same per-kind probes with the array as the
    build; the compiled stacks' lowering as the hash join over the resident
    partition.  What the node adds is the statement that the plan reads a
    catalog structure, which the hardening ladder's ``no_access`` mode
    plans away.
    """

    index_table: str = ""
    index_column: str = ""

    def __post_init__(self) -> None:
        HashJoin.__post_init__(self)
        if not self.index_table or not self.index_column:
            raise PlanError("IndexJoin requires index_table and index_column")

    def with_children(self, children: Sequence[Operator]) -> "IndexJoin":
        return IndexJoin(children[0], children[1], self.left_key, self.right_key,
                         self.kind, self.residual, self.index_table,
                         self.index_column)

    def describe(self) -> str:
        return (f"IndexJoin[{self.kind}]({self.left_key!r} = {self.right_key!r}; "
                f"index={self.index_table}.{self.index_column})")


@dataclass(repr=False, slots=True)
class Agg(Operator):
    """Group-by aggregation.

    ``group_keys`` is a list of ``(name, expr)`` pairs; an empty list produces
    a single global aggregate row.  ``having`` filters groups after
    aggregation (it may reference group keys and aggregate names).
    """

    child: Operator
    group_keys: Tuple[Tuple[str, Expr], ...]
    aggregates: Tuple[AggSpec, ...]
    having: Optional[Expr] = None

    def __post_init__(self) -> None:
        self.group_keys = tuple((name, wrap(expr)) for name, expr in self.group_keys)
        self.aggregates = tuple(self.aggregates)
        names = [name for name, _ in self.group_keys] + [a.name for a in self.aggregates]
        if len(names) != len(set(names)):
            raise PlanError("duplicate output names in aggregation")

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Operator]) -> "Agg":
        return Agg(children[0], self.group_keys, self.aggregates, self.having)

    def describe(self) -> str:
        keys = ", ".join(name for name, _ in self.group_keys)
        aggs = ", ".join(f"{a.name}={a.kind}" for a in self.aggregates)
        return f"Agg(keys=[{keys}], aggs=[{aggs}])"


@dataclass(repr=False, slots=True)
class Sort(Operator):
    """Order rows by a list of ``(expr, 'asc'|'desc')`` keys."""

    child: Operator
    keys: Tuple[Tuple[Expr, str], ...]

    def __post_init__(self) -> None:
        self.keys = tuple((wrap(expr), order) for expr, order in self.keys)
        for _, order in self.keys:
            if order not in ("asc", "desc"):
                raise PlanError(f"unknown sort order {order!r}")

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Operator]) -> "Sort":
        return Sort(children[0], self.keys)

    def describe(self) -> str:
        return f"Sort({', '.join(order for _, order in self.keys)})"


@dataclass(repr=False, slots=True)
class Limit(Operator):
    """Keep only the first ``count`` rows.

    ``count <= 0`` yields no rows on every engine; negative counts are
    rejected by :func:`validate`.
    """

    child: Operator
    count: int

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Operator]) -> "Limit":
        return Limit(children[0], self.count)

    def describe(self) -> str:
        return f"Limit({self.count})"


@dataclass(repr=False, slots=True)
class TopK(Operator):
    """The first ``count`` rows of the ``Sort(keys)`` order of the input.

    Semantically identical to ``Limit(Sort(child, keys), count)`` — the
    planner's top-k fusion rule produces this operator from exactly that
    shape — but executed as a bounded heap (:mod:`repro.engine.sortkeys`)
    instead of a full sort, so the input is never materialised in sorted
    order.  Tie-breaking is stable (input order), matching the engines'
    stable multi-pass sorts row for row.
    """

    child: Operator
    keys: Tuple[Tuple[Expr, str], ...]
    count: int

    def __post_init__(self) -> None:
        self.keys = tuple((wrap(expr), order) for expr, order in self.keys)
        for _, order in self.keys:
            if order not in ("asc", "desc"):
                raise PlanError(f"unknown sort order {order!r}")

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[Operator]) -> "TopK":
        return TopK(children[0], self.keys, self.count)

    def describe(self) -> str:
        orders = ", ".join(order for _, order in self.keys)
        return f"TopK({self.count}; {orders})"


# ---------------------------------------------------------------------------
# Plan analysis
# ---------------------------------------------------------------------------
def walk(plan: Operator):
    """Yield every operator of a plan (pre-order)."""
    yield plan
    for child in plan.children():
        yield from walk(child)


def output_fields(plan: Operator, catalog,
                  memo: Optional[Dict[int, List[str]]] = None) -> List[str]:
    """Output column names of a plan node (requires the catalog for scans).

    ``memo`` is an optional per-node cache keyed by ``id(node)``.  One
    validation (or optimization) pass over a plan asks for the fields of the
    same subtrees at every enclosing level; threading a memo dictionary
    through turns that from quadratic into linear work.  The memo is only
    valid while the plan tree is not mutated and stays alive, so callers
    create one per pass and drop it afterwards.
    """
    if memo is not None:
        cached = memo.get(id(plan))
        if cached is not None:
            return cached
    result = _output_fields(plan, catalog, memo)
    if memo is not None:
        memo[id(plan)] = result
    return result


def _output_fields(plan: Operator, catalog,
                   memo: Optional[Dict[int, List[str]]]) -> List[str]:
    if isinstance(plan, Scan):
        # Resolve the table before anything else so an unknown table surfaces
        # as a PlanError from validate()/output_fields() rather than a
        # storage-layer SchemaError escaping through plan analysis — and so
        # it is reported even for scans with an explicit field list.
        if not catalog.schema.has_table(plan.table):
            raise PlanError(f"scan of unknown table {plan.table!r}")
        if plan.fields is not None:
            return list(plan.fields)
        return catalog.schema.table(plan.table).column_names()
    if isinstance(plan, (Select, Limit, Sort, TopK)):
        return output_fields(plan.child, catalog, memo)
    if isinstance(plan, Project):
        return [name for name, _ in plan.projections]
    if isinstance(plan, HashJoin):
        left = output_fields(plan.left, catalog, memo)
        if plan.kind in ("leftsemi", "leftanti"):
            return left
        right = output_fields(plan.right, catalog, memo)
        overlap = set(left) & set(right)
        if overlap:
            raise PlanError(
                f"join would produce duplicate column names {sorted(overlap)}; "
                "rename with a Project before joining")
        return left + right
    if isinstance(plan, Agg):
        return [name for name, _ in plan.group_keys] + [a.name for a in plan.aggregates]
    raise PlanError(f"unknown operator {type(plan).__name__}")


def padded_fields(plan: Operator, catalog) -> FrozenSet[str]:
    """Output fields of a plan that an outer join in it may pad with ``None``.

    These are the right input's fields of every ``leftouter`` join, carried
    up through ``Project`` (an output that reads a padded field, a rename
    included) and ``Agg`` group keys.  A base column that stores ``None`` is
    not here: that is what the load-time statistics count.
    """
    if isinstance(plan, Scan):
        return frozenset()
    if isinstance(plan, (Select, Limit, Sort, TopK)):
        return padded_fields(plan.child, catalog)
    if isinstance(plan, (Project, Agg)):
        padded = padded_fields(plan.child, catalog)
        outputs = plan.projections if isinstance(plan, Project) else plan.group_keys
        return frozenset(name for name, expr in outputs
                         if padded.intersection(columns_used(expr)))
    if isinstance(plan, HashJoin):
        padded = padded_fields(plan.left, catalog)
        if plan.kind == "leftouter":
            return padded.union(output_fields(plan.right, catalog))
        if plan.kind == "inner":
            return padded | padded_fields(plan.right, catalog)
        return padded
    raise PlanError(f"unknown operator {type(plan).__name__}")


def shared_subplan_fingerprints(plan: Operator) -> Dict[int, str]:
    """Repeated subplans of a plan: ``id(node) -> structural key``.

    A subtree is *shared* when its canonical structure occurs more than once
    in the plan — either as one Python object referenced from two parents
    (TPC-H Q15's revenue view) or as two structurally identical trees (Q11's
    twice-built partsupp pipeline).  The vectorized engine and the compiled
    stacks consult this map to execute each shared subtree once per query and
    serve later occurrences from a materialised subplan; the Volcano
    interpreter, the reference, does not.  Bare scans are excluded: they are
    already zero-copy reads of the catalog's columnar storage, so caching
    them would only add a materialisation.

    The returned keys are ``id()`` values of the plan's own nodes; the map is
    only valid while that plan object is alive (engines build it per
    execution and drop it afterwards).
    """
    counts: Dict[str, int] = {}
    by_id: Dict[int, str] = {}
    for node in walk(plan):
        if isinstance(node, Scan):
            continue
        # pre-order: the root's canonical form fills ``by_id`` for the whole
        # tree, so every later node is a lookup, not another subtree walk
        canonical = _plan_canonical(node, by_id)
        counts[canonical] = counts.get(canonical, 0) + 1
    return {node_id: canonical for node_id, canonical in by_id.items()
            if counts.get(canonical, 0) > 1}


def plan_fingerprint(plan: Operator) -> str:
    """A stable structural fingerprint of a plan tree (hex digest).

    Two plans share a fingerprint iff they are structurally identical —
    same operator tree, expressions, literals, field lists and options — which
    is the key of the compiled-query cache in :mod:`repro.codegen.compiler`.
    """
    import hashlib

    return hashlib.sha256(_canonical(plan).encode("utf-8")).hexdigest()


def _canonical(plan: Operator) -> str:
    """Canonical form of a subtree, each node canonicalised where it is met:
    what one fingerprint of one tree needs, with nothing allocated to
    remember nodes it will not meet again."""
    return _canonicalize(plan, _canonical)


def _plan_canonical(plan: Operator, memo: Dict[int, str]) -> str:
    """Canonical form of a subtree.  ``memo`` (``id(node) -> canonical``)
    belongs to one caller and one live plan: with it every node is
    canonicalised once per call, however many enclosing subtrees ask."""
    canonical = memo.get(id(plan))
    if canonical is None:
        canonical = memo[id(plan)] = _canonicalize(
            plan, lambda child: _plan_canonical(child, memo))
    return canonical


def _canonicalize(plan: Operator, sub: Callable[[Operator], str]) -> str:
    """One node's canonical form; ``sub`` gives that of a child."""
    from .expr_compile import expr_fingerprint as efp

    def opt(expr) -> str:
        return "-" if expr is None else efp(expr)

    if isinstance(plan, Scan):
        fields = "*" if plan.fields is None else ",".join(plan.fields)
        return f"Scan({plan.table};{fields})"
    if isinstance(plan, PrunedScan):
        zones = ",".join(f"{column}{op}{value!r}"
                         for column, op, value in plan.zone_filters)
        return (f"PrunedScan({efp(plan.predicate)};[{zones}];"
                f"{sub(plan.child)})")
    if isinstance(plan, Select):
        return f"Select({efp(plan.predicate)};{sub(plan.child)})"
    if isinstance(plan, Project):
        projections = ",".join(f"{name}={efp(expr)}" for name, expr in plan.projections)
        return f"Project({projections};{sub(plan.child)})"
    if isinstance(plan, IndexJoin):
        return (f"IndexJoin({plan.kind};{plan.index_table}.{plan.index_column};"
                f"{efp(plan.left_key)};{efp(plan.right_key)};"
                f"{opt(plan.residual)};{sub(plan.left)};"
                f"{sub(plan.right)})")
    if isinstance(plan, HashJoin):
        return (f"HashJoin({plan.kind};{efp(plan.left_key)};{efp(plan.right_key)};"
                f"{opt(plan.residual)};{sub(plan.left)};"
                f"{sub(plan.right)})")
    if isinstance(plan, Agg):
        keys = ",".join(f"{name}={efp(expr)}" for name, expr in plan.group_keys)
        aggs = ",".join(f"{a.name}={a.kind}({opt(a.expr)})" for a in plan.aggregates)
        return (f"Agg([{keys}];[{aggs}];{opt(plan.having)};"
                f"{sub(plan.child)})")
    if isinstance(plan, Sort):
        keys = ",".join(f"{efp(expr)}:{order}" for expr, order in plan.keys)
        return f"Sort([{keys}];{sub(plan.child)})"
    if isinstance(plan, Limit):
        return f"Limit({plan.count};{sub(plan.child)})"
    if isinstance(plan, TopK):
        keys = ",".join(f"{efp(expr)}:{order}" for expr, order in plan.keys)
        return f"TopK([{keys}];{plan.count};{sub(plan.child)})"
    raise PlanError(f"cannot fingerprint operator {type(plan).__name__}")


def validate(plan: Operator, catalog) -> None:
    """Check that every expression only references columns available to it.

    A join's ``residual``, which sees both inputs, is checked against the
    combined left+right fields, with sided column references resolved against
    the matching input.
    Child field lists are memoized per node for the duration of the pass, so
    validation is linear in the size of the plan.
    """
    memo: Dict[int, List[str]] = {}

    def fields_of(node: Operator) -> List[str]:
        return output_fields(node, catalog, memo)

    def check(node: Operator) -> None:
        fields = fields_of(node)
        if isinstance(node, Scan):
            table_columns = set(catalog.schema.table(node.table).column_names())
            unknown = set(fields) - table_columns
            if unknown:
                raise PlanError(f"scan of {node.table!r} selects unknown columns {sorted(unknown)}")
        if isinstance(node, Select):
            _require(columns_used(node.predicate), fields_of(node.child), node)
        if isinstance(node, PrunedScan):
            child_fields = fields_of(node.child)
            zone_columns = [column for column, _, _ in node.zone_filters]
            _require(zone_columns, child_fields, node)
        if isinstance(node, IndexJoin):
            if not isinstance(node.left, Scan):
                raise PlanError(
                    f"{node.describe()}: build side must be a bare scan of "
                    "the indexed table")
            if node.left.table != node.index_table:
                raise PlanError(
                    f"{node.describe()}: build side scans {node.left.table!r}, "
                    f"not the indexed table {node.index_table!r}")
            if not catalog.schema.has_table(node.index_table):
                raise PlanError(
                    f"{node.describe()}: unknown indexed table "
                    f"{node.index_table!r}")
            if not catalog.schema.table(node.index_table).has_column(node.index_column):
                raise PlanError(
                    f"{node.describe()}: unknown index column "
                    f"{node.index_table}.{node.index_column}")
            from .expr import Col
            key = node.left_key
            if not (isinstance(key, Col) and key.side is None
                    and key.name == node.index_column):
                raise PlanError(
                    f"{node.describe()}: left key must be the bare index "
                    f"column {node.index_column!r}")
        if isinstance(node, Project):
            child_fields = fields_of(node.child)
            for _, expr in node.projections:
                _require(columns_used(expr), child_fields, node)
        if isinstance(node, HashJoin):
            left_fields = fields_of(node.left)
            right_fields = fields_of(node.right)
            _require(columns_used(node.left_key), left_fields, node)
            _require(columns_used(node.right_key), right_fields, node)
            if node.residual is not None:
                _require_sided(node.residual, left_fields, right_fields, node)
        if isinstance(node, Agg):
            child_fields = fields_of(node.child)
            for _, expr in node.group_keys:
                _require(columns_used(expr), child_fields, node)
            for agg in node.aggregates:
                if agg.expr is not None:
                    _require(columns_used(agg.expr), child_fields, node)
            if node.having is not None:
                _require(columns_used(node.having), fields, node)
        if isinstance(node, (Sort, TopK)):
            child_fields = fields_of(node.child)
            for expr, _ in node.keys:
                _require(columns_used(expr), child_fields, node)
        if isinstance(node, (Limit, TopK)) and node.count < 0:
            raise PlanError(
                f"{node.describe()}: negative row count {node.count}; "
                "use 0 to return no rows")

    # Pre-order over an explicit stack, not recursion: a nested function that
    # calls itself is a reference cycle through its own closure cell, and this
    # one would pin ``catalog`` (and all its data) until a GC pass.
    pending = [plan]
    while pending:
        node = pending.pop()
        check(node)
        pending.extend(reversed(node.children()))


def _require(columns: Sequence[str], available: Sequence[str], node: Operator) -> None:
    missing = [c for c in columns if c not in available]
    if missing:
        raise PlanError(
            f"{node.describe()}: references unavailable columns {missing}; "
            f"available: {sorted(available)}")


def _require_sided(expr: Expr, left: Sequence[str], right: Sequence[str],
                   node: Operator) -> None:
    """Check a two-input join predicate: ``side='left'`` references must come
    from the left input, ``side='right'`` from the right input, and unsided
    references from the union (the engines resolve those right-shadows-left)."""
    left_set, right_set = set(left), set(right)
    missing = []
    for name, side in columns_used_with_sides(expr):
        if side == "left":
            if name not in left_set:
                missing.append(f"{name} (left)")
        elif side == "right":
            if name not in right_set:
                missing.append(f"{name} (right)")
        elif name not in left_set and name not in right_set:
            missing.append(name)
    if missing:
        raise PlanError(
            f"{node.describe()}: join predicate references unavailable columns "
            f"{missing}; left: {sorted(left_set)}; right: {sorted(right_set)}")
