"""The in-memory table layout: columnar (Figure 3 of the paper).

The storage engine keeps loaded relations in a **columnar** layout (one Python
list per attribute), which is what the generated code reads directly.  The
row and boxed layouts of Section 4.2 are a choice of the lowering, not of
storage: ``transforms/pipelining.py`` picks row tuples or boxed dictionaries
for the intermediate records it materialises (``record_layout``), and the
Volcano interpreter boxes each row it scans into a dictionary.

A loader may hand over a text column as a :class:`TextColumn` — a row count
and a ``draw`` of one byte per word, a code into a shared vocabulary —
instead of a list of strings.  :meth:`ColumnarTable.column` is the one way to
read a column: it draws and decodes a text column into the list of strings on
its first read and stores that list in its place, so every reader sees a
``list`` and a text column no plan reads is never drawn.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

from .schema import TableSchema


class LayoutError(Exception):
    pass


class TextColumn:
    """A column of texts held as a row count and a ``draw`` until its first read.

    ``draw()`` returns the column's word codes and the end of every row: row
    ``i`` is the words ``codes[ends[i - 1]:ends[i]]`` (from 0 for row 0) of
    the vocabulary ``words``, joined by one space.  The vocabulary is shared,
    so a drawn row costs one byte per word plus four for its end instead of a
    string, and a column nobody reads is never drawn.  Only this class and
    the generator that draws know the format; everyone else reads the decoded
    list through :meth:`ColumnarTable.column`.
    """

    __slots__ = ("words", "rows", "draw", "_memo")

    def __init__(self, words: Sequence[str], rows: int,
                 draw: Callable[[], Tuple[bytearray, "array[int]"]]) -> None:
        self.words = words
        self.rows = rows
        self.draw = draw
        #: the drawn ``(codes, ends)`` under ``"codes"`` and the decoded list
        #: under ``"strings"``, each stored by ``setdefault``
        self._memo: Dict[str, Any] = {}

    def __len__(self) -> int:
        return self.rows

    def _stored(self, key: str, make: Callable[[], Any]) -> Any:
        """A lock-free idempotent memo: racing first calls may each make the
        value, and every one returns the value stored first."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo.setdefault(key, make())
        return value

    def coded(self) -> Tuple[bytearray, "array[int]"]:
        """The codes and row ends, drawn on the first call."""
        return self._stored("codes", self.draw)

    def decode(self) -> List[str]:
        """The rows as strings."""
        return self._stored("strings", self._decode)

    def _decode(self) -> List[str]:
        codes, ends = self.coded()
        tokens, join = list(map(self.words.__getitem__, codes)), " ".join
        return [join(tokens[start:end]) for start, end in zip(chain((0,), ends), ends)]

    def footprint(self) -> int:
        """:meth:`ColumnarTable.footprint` of the decoded column, from the
        codes: the ``sys.getsizeof`` of the list :meth:`decode` builds (it
        appends, as this one does) and one byte a character of every row —
        its words and one space between two.  Codes nobody has read are
        drawn for the count and not kept."""
        codes, ends = self._memo.get("codes") or self.draw()
        lengths = [len(word) for word in self.words]
        rows = sum(1 for start, end in zip(chain((0,), ends), ends) if end > start)
        return (sys.getsizeof([None for _ in ends])
                + sum(map(lengths.__getitem__, codes)) + len(codes) - rows)


@dataclass
class ColumnarTable:
    """Columnar layout: a dict from column name to a list of values (or to a
    :class:`TextColumn` not yet read)."""

    schema: TableSchema
    columns: Dict[str, Union[List[Any], TextColumn]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = set(self.schema.column_names())
        if self.columns and set(self.columns) != expected:
            missing = expected - set(self.columns)
            extra = set(self.columns) - expected
            raise LayoutError(
                f"columns do not match schema of {self.schema.name!r}: "
                f"missing={sorted(missing)}, extra={sorted(extra)}")
        sizes = {len(col) for col in self.columns.values()}
        if len(sizes) > 1:
            raise LayoutError(f"ragged columns in table {self.schema.name!r}: {sizes}")

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str) -> List[Any]:
        """The values of one column; a :class:`TextColumn` is decoded on its
        first read and the list stored in its place."""
        try:
            values = self.columns[name]
        except KeyError:
            raise LayoutError(f"table {self.name!r} has no column {name!r}") from None
        if type(values) is TextColumn:
            values = self.columns[name] = values.decode()
        return values

    def footprint(self) -> int:
        """*Logical* size in bytes, the C layout of the paper's Figure 8:
        8 B a non-string value, one a character of a string, plus each
        column's list.  A text column not yet read is sized from its codes,
        drawn if need be and not kept, and is not decoded."""
        total = 0
        for values in self.columns.values():
            if type(values) is TextColumn:
                total += values.footprint()
            else:
                total += sys.getsizeof(values) + sum(
                    len(v) if isinstance(v, str) else 8 for v in values)
        return total
