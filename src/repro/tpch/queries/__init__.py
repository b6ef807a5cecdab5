"""Registry of the 22 TPC-H query plans.

``QUERIES`` maps query names (``"Q1"`` .. ``"Q22"``) to zero-argument
functions building the corresponding QPlan tree with the standard validation
parameter values of the TPC-H specification.
"""
from __future__ import annotations

from typing import Callable, Dict, List

from ...dsl.qplan import Operator
from . import q01_q06, q07_q12, q13_q18, q19_q22

QUERIES: Dict[str, Callable[[], Operator]] = {
    "Q1": q01_q06.q1, "Q2": q01_q06.q2, "Q3": q01_q06.q3, "Q4": q01_q06.q4,
    "Q5": q01_q06.q5, "Q6": q01_q06.q6,
    "Q7": q07_q12.q7, "Q8": q07_q12.q8, "Q9": q07_q12.q9, "Q10": q07_q12.q10,
    "Q11": q07_q12.q11, "Q12": q07_q12.q12,
    "Q13": q13_q18.q13, "Q14": q13_q18.q14, "Q15": q13_q18.q15, "Q16": q13_q18.q16,
    "Q17": q13_q18.q17, "Q18": q13_q18.q18,
    "Q19": q19_q22.q19, "Q20": q19_q22.q20, "Q21": q19_q22.q21, "Q22": q19_q22.q22,
}

QUERY_NAMES: List[str] = [f"Q{i}" for i in range(1, 23)]


def build_query(name: str) -> Operator:
    """Build the plan of one TPC-H query by name (``"Q1"`` .. ``"Q22"``)."""
    try:
        return QUERIES[name]()
    except KeyError:
        raise KeyError(f"unknown TPC-H query {name!r}; known: {QUERY_NAMES}") from None
