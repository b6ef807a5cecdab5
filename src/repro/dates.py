"""Date handling shared by the data generator, the front ends and generated code.

Dates are stored as plain integers of the form ``YYYYMMDD`` (e.g. 19980901),
mirroring how compiled query engines avoid heavyweight date objects on the
critical path.  Integer comparison then coincides with chronological order,
which is all the TPC-H predicates need; interval arithmetic (``+ 3 months``)
is resolved at query-construction time.
"""
from __future__ import annotations

import datetime


def date_to_int(value) -> int:
    """Convert ``datetime.date`` or ``'YYYY-MM-DD'`` into the integer encoding."""
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    return value.year * 10000 + value.month * 100 + value.day


def int_to_date(value: int) -> datetime.date:
    """Convert the integer encoding back into a ``datetime.date``."""
    return datetime.date(value // 10000, (value // 100) % 100, value % 100)


def year_of(value: int) -> int:
    """Extract the year of an encoded date (the EXTRACT(YEAR ...) of TPC-H Q7/Q8/Q9)."""
    return value // 10000


def add_days(value: int, days: int) -> int:
    return date_to_int(int_to_date(value) + datetime.timedelta(days=days))
