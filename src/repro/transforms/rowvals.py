"""Row abstractions used by the push-engine lowering.

A :class:`RowVals` is the compile-time stand-in for "the current row" while
operators are being lowered: it maps column names to the IR atoms holding
their values.  Rows come in three flavours:

* **scalar rows** hold one atom per column (the fields of the row live in
  local variables — scalar replacement by construction),
* **record-backed rows** hold a single record atom and read fields through
  ``record_get`` on demand (the boxed representation the naive two-level
  stack uses), and
* **column-backed rows** hold a row position and read fields through
  ``array_get`` on the base table's column arrays on demand (the elements of
  a catalog-resident partition are positions, not records).

Materialising a row produces a record value that can be stored in data
structures (hash-table buckets, sort buffers, the result list); the layout of
that record ("boxed" dictionaries vs "row" tuples) is the data-layout choice
of Section 4.2.  A row carries an :class:`Origin` for each base-row
position some of its fields are read at; a hash build whose probes read only
fields of one origin stores that position instead of a record, and its
probes read the fields back from the columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..ir.builder import IRBuilder
from ..ir.nodes import Atom, Const


#: ``reread(stored, wanted, consume)``: see :class:`Origin`
Reread = Callable[[Atom, Sequence[str], Callable[["RowVals"], None]], None]


@dataclass(frozen=True)
class Origin:
    """Where fields of a row live: every one of ``fields`` is a base column
    read at ``position``, directly or through unique-key lookups from it.

    ``reread(stored, wanted, consume)`` emits, wherever the builder stands,
    the row of the ``wanted`` fields at a stored position and hands it to
    ``consume`` (a lookup through a unique key opens the bucket walk
    ``consume`` runs in).  Origins with one reread read a stored position
    back the same way, whatever their ``position``.
    """

    position: Atom
    fields: FrozenSet[str]
    reread: Reread


class RowVals:
    """Compile-time mapping from column names to the atoms holding their values."""

    def __init__(self, values: Dict[str, Atom],
                 record: Optional[Atom] = None,
                 record_fields: Tuple[str, ...] = (),
                 layout: str = "boxed",
                 read: Optional[Callable[[str], Atom]] = None,
                 origins: Sequence[Origin] = ()) -> None:
        self._values = dict(values)
        self._record = record
        #: the columns read on demand through ``read`` (backed rows only)
        self._record_fields = tuple(record_fields)
        self._layout = layout
        #: emits the read of one of ``record_fields`` and returns its atom
        self._read = read
        #: base-row positions fields of this row can be read back from
        self.origins = tuple(origins)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def scalars(cls, values: Dict[str, Atom],
                origins: Sequence[Origin] = ()) -> "RowVals":
        return cls(values, origins=origins)

    @classmethod
    def record_backed(cls, builder: IRBuilder, record: Atom, fields: Sequence[str],
                      layout: str = "boxed") -> "RowVals":
        fields = tuple(fields)

        def read(name: str) -> Atom:
            return builder.emit(
                "record_get", [record],
                attrs={"field": name, "layout": layout, "fields": fields},
                hint=name.split("_")[-1][:8] or "f")
        return cls({}, record=record, record_fields=fields, layout=layout,
                   read=read)

    @classmethod
    def column_backed(cls, builder: IRBuilder, columns: Dict[str, Atom],
                      index: Atom, fields: Sequence[str],
                      origins: Sequence[Origin] = ()) -> "RowVals":
        """The base-table row at position ``index``, read column by column."""
        def read(name: str) -> Atom:
            return builder.emit("array_get", [columns[name], index],
                                hint=name[:10])
        return cls({}, record_fields=tuple(fields), read=read, origins=origins)

    @classmethod
    def nulls(cls, fields: Sequence[str]) -> "RowVals":
        """A row whose every column is NULL (the padded side of outer joins)."""
        return cls({name: Const(None) for name in fields})

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def fields(self) -> List[str]:
        if self._record_fields:
            return list(self._record_fields)
        return list(self._values)

    def get(self, name: str) -> Atom:
        """The atom holding column ``name`` (reads through the backing if needed)."""
        if name in self._values:
            return self._values[name]
        if self._read is not None and name in self._record_fields:
            # Note: the read is re-emitted at every access (record_get and
            # array_get have a read effect, so they are never shared); caching
            # the atom here would risk referencing a value bound in a sibling
            # scope.
            return self._read(name)
        raise KeyError(f"row has no column {name!r}; available: {self.fields()}")

    def merge(self, other: "RowVals", builder: IRBuilder) -> "RowVals":
        """Concatenate the columns of two rows (the output of an inner join)."""
        values = {name: self.get(name) for name in self.fields()}
        for name in other.fields():
            values[name] = other.get(name)
        return RowVals(values)

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def backing(self, layout: str,
                fields: Sequence[str]) -> Optional[Tuple[Atom, Tuple[str, ...]]]:
        """``(record, its fields)`` when this row is read from a record of
        ``layout`` that holds every one of ``fields``."""
        if (self._record is not None and self._layout == layout and not self._values
                and set(fields) <= set(self._record_fields)):
            return self._record, self._record_fields
        return None

    def materialize(self, builder: IRBuilder, layout: str,
                    fields: Optional[Sequence[str]] = None) -> Tuple[Atom, Tuple[str, ...]]:
        """Build a record holding this row's columns; returns ``(record, fields)``.

        When the row is already backed by a record with the same layout and
        field set, the backing record is reused (the naive stack stores the
        scanned record directly in its hash tables).
        """
        fields = tuple(fields) if fields is not None else tuple(self.fields())
        if (self._record is not None and self._layout == layout
                and fields == self._record_fields and not self._values):
            return self._record, fields
        values = [self.get(name) for name in fields]
        record = builder.emit("record_new", values,
                              attrs={"fields": fields, "layout": layout}, hint="rec")
        return record, fields
