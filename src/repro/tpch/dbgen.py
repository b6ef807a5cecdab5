"""Deterministic TPC-H-shaped data generator.

The paper evaluates on TPC-H data produced by the official ``dbgen`` tool,
which is not available offline.  This generator produces the same eight
relations with the same key structure (dense primary keys, consistent foreign
keys), the same column domains (dates in 1992-1998, the official enumerations
for priorities, ship modes, segments, brands, types and containers) and
keyword-bearing text columns so that every LIKE / substring predicate of the
22 queries selects a non-trivial fraction of rows.

Row counts scale linearly with the scale factor exactly as in TPC-H
(customer = 150k·SF, orders = 1.5M·SF, lineitem ≈ 4·orders, part = 200k·SF,
partsupp = 4·part, supplier = 10k·SF), so plan shapes and relative operator
costs mirror the original benchmark even though absolute values differ.
Generation is fully deterministic for a given ``(scale_factor, seed)``.

As official dbgen draws its comments out of one shared text pool, every text
column here (comments and addresses) is written as codes into one word list,
:data:`VOCABULARY`: a :class:`~repro.storage.layouts.TextColumn` of one byte
per word.  As in official dbgen, each text column has its own seed stream,
``random.Random(f"{seed}/{column}")`` (a str seed is hashed with sha512, the
same in every process and CPython version), and every other column is drawn
from the main stream ``random.Random(seed)``.  So a text column is drawn, then
decoded, by its first reader, and set-up draws no word: a comment no query
reads (``l_comment``, ``ps_comment``, ``p_comment``, ``r_comment``,
``n_comment``) is never drawn, and reading text columns in any order changes
no column.
"""
from __future__ import annotations

import random
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from .. import dates
from ..storage.catalog import Catalog
from ..storage.layouts import ColumnarTable, TextColumn
from .schema import tpch_schema

# ---------------------------------------------------------------------------
# Official TPC-H value domains.
# ---------------------------------------------------------------------------
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1), ("EGYPT", 4),
    ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3), ("INDIA", 2), ("INDONESIA", 2),
    ("IRAN", 4), ("IRAQ", 4), ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0),
    ("MOROCCO", 0), ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3), ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
]

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]
TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]
CONTAINER_SYLLABLE_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINER_SYLLABLE_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]
COLORS = ["almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
          "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
          "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
          "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
          "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
          "hot", "hazel", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
          "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
          "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
          "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
          "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
          "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
          "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
          "yellow"]
NOUNS = ["packages", "requests", "accounts", "deposits", "foxes", "ideas",
         "theodolites", "instructions", "dependencies", "excuses", "platelets",
         "asymptotes", "courts", "dolphins", "multipliers", "sauternes", "warthogs",
         "frets", "dinos", "attainments", "somas", "pinto beans", "instructions"]
VERBS = ["sleep", "wake", "are", "cajole", "haggle", "nag", "use", "boost", "affix",
         "detect", "integrate", "maintain", "nod", "was", "lose", "sublate", "solve",
         "thrash", "promise", "engage", "hinder", "print", "doze", "run", "dazzle"]
ADJECTIVES = ["special", "pending", "unusual", "express", "furious", "sly", "careful",
              "blithe", "quick", "fluffy", "slow", "quiet", "ruthless", "thin", "close",
              "dogged", "daring", "brave", "stealthy", "permanent", "enticing", "idle",
              "busy", "regular", "final", "ironic", "even", "bold", "silent"]

START_DATE = dates.date_to_int("1992-01-01")
END_DATE = dates.date_to_int("1998-08-02")
_TOTAL_DAYS = 2405   # days between START_DATE and END_DATE

# Value tables: a row holds the table's object, not a fresh box, so a loaded
# column costs one object per *distinct* value; dates are drawn as day ordinals
# into ``_CALENDAR``, which also keeps ``datetime`` off the per-row path.
_CALENDAR = [dates.add_days(START_DATE, day) for day in range(_TOTAL_DAYS + 1)]
_QUANTITIES = [float(quantity) for quantity in range(51)]
_HUNDREDTHS = [percent / 100.0 for percent in range(11)]

# Word-list sizes and the bit widths ``Random.choice`` draws them with.
_N_ADJECTIVES, _N_NOUNS, _N_VERBS = len(ADJECTIVES), len(NOUNS), len(VERBS)
_K_ADJECTIVES, _K_NOUNS, _K_VERBS = (_N_ADJECTIVES.bit_length(), _N_NOUNS.bit_length(),
                                     _N_VERBS.bit_length())

#: the words every text column is written in: a text holds one code (an
#: index here) per word; the last three are the markers Q16 and Q13 look for
VOCABULARY = tuple(ADJECTIVES + NOUNS + VERBS
                   + ["Customer", "Complaints", "special packages requests"])
_NOUN_CODE, _VERB_CODE = _N_ADJECTIVES, _N_ADJECTIVES + _N_NOUNS
_CUSTOMER, _COMPLAINTS, _SPECIAL_REQUESTS = range(len(VOCABULARY) - 3, len(VOCABULARY))


def draw_below(getrandbits):
    """``below(n)``: a uniform draw from ``range(n)``, ``n > 0``.

    This is the rejection loop under ``Random.randrange``, ``randint`` and
    ``choice`` (``_randbelow_with_getrandbits``) without the argument checks
    and the three Python calls in front of it: the value drawn and the
    generator state afterwards are the same, so ``lo + below(hi - lo + 1)``
    *is* ``randint(lo, hi)`` and ``seq[below(len(seq))]`` *is* ``choice(seq)``.
    """
    def below(n: int) -> int:
        width = n.bit_length()
        drawn = getrandbits(width)
        while drawn >= n:
            drawn = getrandbits(width)
        return drawn
    return below


def draw_texts(rng: random.Random, rows: int, min_words: int, max_words: int,
               marker: Optional[Callable[..., None]] = None
               ) -> Tuple[bytearray, "array[int]"]:
    """The word codes of ``rows`` random texts drawn from ``rng``, and the end
    of every row: :class:`TextColumn`'s format.  ``marker(rng, below, codes,
    start, count)`` may add a marker to a row of ``count`` words at ``start``.

    Every word draws an adjective, a noun and a verb and then picks one of
    the three — four draws a word — so the ``below`` loop is written out with
    the widths of the word lists precomputed.
    """
    getrandbits = rng.getrandbits
    below = draw_below(getrandbits)
    codes, ends = bytearray(), array("I")
    append = codes.append
    for _ in range(rows):
        start = len(codes)
        count = min_words + below(max_words - min_words + 1)
        for _ in range(count):
            adjective = getrandbits(_K_ADJECTIVES)
            while adjective >= _N_ADJECTIVES:
                adjective = getrandbits(_K_ADJECTIVES)
            noun = getrandbits(_K_NOUNS)
            while noun >= _N_NOUNS:
                noun = getrandbits(_K_NOUNS)
            verb = getrandbits(_K_VERBS)
            while verb >= _N_VERBS:
                verb = getrandbits(_K_VERBS)
            pick = getrandbits(2)
            while pick >= 3:
                pick = getrandbits(2)
            append(adjective if pick == 0
                   else _NOUN_CODE + noun if pick == 1 else _VERB_CODE + verb)
        if marker is not None:
            marker(rng, below, codes, start, count)
        ends.append(len(codes))
    return codes, ends


def _complaints(rng, below, codes, start, count) -> None:
    """~8% of supplier comments end in Q16's "Customer ... Complaints"."""
    if rng.random() < 0.08:
        codes += bytes((_CUSTOMER, below(_N_ADJECTIVES), _COMPLAINTS))


def _special_requests(rng, below, codes, start, count) -> None:
    """~5% of order comments hold Q13's "special packages requests" phrase."""
    if rng.random() < 0.05:
        codes.insert(start + below(count + 1), _SPECIAL_REQUESTS)


#: TPC-H base cardinalities at scale factor 1.
BASE_CARDINALITIES = {
    "supplier": 10_000,
    "part": 200_000,
    "customer": 150_000,
    "orders": 1_500_000,
    "partsupp_per_part": 4,
    "lineitems_per_order": (1, 7),
}


class TpchGenerator:
    """Generates a scaled, deterministic TPC-H-shaped catalog."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 20160626) -> None:
        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed
        self._rng = random.Random(seed)
        self._below = draw_below(self._rng.getrandbits)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self) -> Catalog:
        """Generate all eight relations and return a loaded catalog."""
        catalog = Catalog(schema=tpch_schema())
        tables = {
            "region": self._gen_region(),
            "nation": self._gen_nation(),
        }
        tables["supplier"] = self._gen_supplier()
        tables["part"] = self._gen_part()
        tables["partsupp"] = self._gen_partsupp(tables["part"], tables["supplier"])
        tables["customer"] = self._gen_customer()
        tables["orders"], tables["lineitem"] = self._gen_orders_and_lineitems(
            tables["customer"], tables["part"], tables["supplier"], tables["partsupp"])
        for name in ("region", "nation", "supplier", "customer", "part",
                     "partsupp", "orders", "lineitem"):
            # the loader's path: one place computes statistics and tells the
            # access layer (had one been created) that the table's data changed
            schema, columns = catalog.schema.table(name), tables[name]
            catalog.register(ColumnarTable(schema, {
                column: columns[column] for column in schema.column_names()}))
        return catalog

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _count(self, table: str) -> int:
        return max(1, int(round(BASE_CARDINALITIES[table] * self.scale_factor)))

    def _texts(self, column: str, rows: int, min_words: int = 4, max_words: int = 10,
               marker: Optional[Callable[..., None]] = None) -> TextColumn:
        """``column``: ``rows`` texts drawn by its first reader from the
        column's own stream, so drawing it takes nothing from the main one."""
        stream = f"{self.seed}/{column}"
        return TextColumn(VOCABULARY, rows, lambda: draw_texts(
            random.Random(stream), rows, min_words, max_words, marker))

    def _phone(self, nation_key: int) -> str:
        below = self._below
        country = 10 + nation_key
        return (f"{country}-{100 + below(900)}"
                f"-{100 + below(900)}-{1000 + below(9000)}")

    # ------------------------------------------------------------------
    # Table generators
    # ------------------------------------------------------------------
    def _gen_region(self) -> Dict[str, List]:
        return {
            "r_regionkey": list(range(len(REGIONS))),
            "r_name": list(REGIONS),
            "r_comment": self._texts("r_comment", len(REGIONS)),
        }

    def _gen_nation(self) -> Dict[str, List]:
        return {
            "n_nationkey": list(range(len(NATIONS))),
            "n_name": [name for name, _ in NATIONS],
            "n_regionkey": [region for _, region in NATIONS],
            "n_comment": self._texts("n_comment", len(NATIONS)),
        }

    def _gen_supplier(self) -> Dict[str, List]:
        rng = self._rng
        n = self._count("supplier")
        columns: Dict[str, List] = {name: [] for name in
                                    ("s_suppkey", "s_name", "s_nationkey",
                                     "s_phone", "s_acctbal")}
        for key in range(1, n + 1):
            nation = rng.randrange(len(NATIONS))
            columns["s_suppkey"].append(key)
            columns["s_name"].append(f"Supplier#{key:09d}")
            columns["s_nationkey"].append(nation)
            columns["s_phone"].append(self._phone(nation))
            columns["s_acctbal"].append(round(rng.uniform(-999.99, 9999.99), 2))
        columns["s_address"] = self._texts("s_address", n, 2, 4)
        columns["s_comment"] = self._texts("s_comment", n, 5, 10, _complaints)
        return columns

    def _gen_part(self) -> Dict[str, List]:
        rng = self._rng
        n = self._count("part")
        columns: Dict[str, List] = {name: [] for name in
                                    ("p_partkey", "p_name", "p_mfgr", "p_brand", "p_type",
                                     "p_size", "p_container", "p_retailprice")}
        for key in range(1, n + 1):
            manufacturer = rng.randint(1, 5)
            brand = manufacturer * 10 + rng.randint(1, 5)
            name = " ".join(rng.sample(COLORS, 5))
            columns["p_partkey"].append(key)
            columns["p_name"].append(name)
            columns["p_mfgr"].append(f"Manufacturer#{manufacturer}")
            columns["p_brand"].append(f"Brand#{brand}")
            columns["p_type"].append(" ".join([rng.choice(TYPE_SYLLABLE_1),
                                               rng.choice(TYPE_SYLLABLE_2),
                                               rng.choice(TYPE_SYLLABLE_3)]))
            columns["p_size"].append(rng.randint(1, 50))
            columns["p_container"].append(" ".join([rng.choice(CONTAINER_SYLLABLE_1),
                                                    rng.choice(CONTAINER_SYLLABLE_2)]))
            columns["p_retailprice"].append(
                round(90000 + ((key // 10) % 20001) + 100 * (key % 1000), 2) / 100.0)
        columns["p_comment"] = self._texts("p_comment", n, 2, 5)
        return columns

    def _gen_partsupp(self, part: Dict[str, List], supplier: Dict[str, List]) -> Dict[str, List]:
        rng, below = self._rng, self._below
        n_supp = len(supplier["s_suppkey"])
        per_part = BASE_CARDINALITIES["partsupp_per_part"]
        ps_partkey, ps_suppkey, ps_availqty, ps_supplycost = ([] for _ in range(4))
        for partkey in part["p_partkey"]:
            suppliers = rng.sample(range(1, n_supp + 1), min(per_part, n_supp))
            for suppkey in suppliers:
                ps_partkey.append(partkey)
                ps_suppkey.append(suppkey)
                ps_availqty.append(1 + below(9999))
                ps_supplycost.append(round(rng.uniform(1.0, 1000.0), 2))
        return {"ps_partkey": ps_partkey, "ps_suppkey": ps_suppkey,
                "ps_availqty": ps_availqty, "ps_supplycost": ps_supplycost,
                "ps_comment": self._texts("ps_comment", len(ps_partkey), 5, 12)}

    def _gen_customer(self) -> Dict[str, List]:
        rng = self._rng
        n = self._count("customer")
        columns: Dict[str, List] = {name: [] for name in
                                    ("c_custkey", "c_name", "c_nationkey",
                                     "c_phone", "c_acctbal", "c_mktsegment")}
        for key in range(1, n + 1):
            nation = rng.randrange(len(NATIONS))
            columns["c_custkey"].append(key)
            columns["c_name"].append(f"Customer#{key:09d}")
            columns["c_nationkey"].append(nation)
            columns["c_phone"].append(self._phone(nation))
            columns["c_acctbal"].append(round(rng.uniform(-999.99, 9999.99), 2))
            columns["c_mktsegment"].append(rng.choice(SEGMENTS))
        columns["c_address"] = self._texts("c_address", n, 2, 4)
        columns["c_comment"] = self._texts("c_comment", n, 6, 12)
        return columns

    def _gen_orders_and_lineitems(self, customer, part, supplier, partsupp):
        rng, below = self._rng, self._below
        n_orders = self._count("orders")
        # a foreign key is the referenced primary-key column's own int object
        custkeys = customer["c_custkey"]
        partkeys = part["p_partkey"]
        n_customers = len(custkeys)
        n_parts = len(partkeys)
        n_suppliers = len(supplier["s_suppkey"])
        retail_price = part["p_retailprice"]
        n_clerks = max(2, n_orders // 1000)
        clerks = [f"Clerk#{number:09d}" for number in range(n_clerks + 1)]

        (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate,
         o_orderpriority, o_clerk, o_shippriority) = ([] for _ in range(8))
        (l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
         l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus,
         l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct,
         l_shipmode) = ([] for _ in range(15))
        lo_lines, hi_lines = BASE_CARDINALITIES["lineitems_per_order"]
        cutoff = dates.date_to_int("1995-06-17")

        for orderkey in range(1, n_orders + 1):
            # As in official dbgen, one third of the customers never place an
            # order (keys divisible by three), which keeps Q13/Q22 meaningful.
            custkey = 1 + below(n_customers)
            while custkey % 3 == 0:
                custkey = 1 + below(n_customers)
            # order dates leave room for shipping within the 1992-1998 window
            order_day = below(_TOTAL_DAYS - 151 + 1)
            total_price = 0.0
            any_open = False
            for line_number in range(1, lo_lines + below(hi_lines - lo_lines + 1) + 1):
                partkey = partkeys[below(n_parts)]
                suppkey = 1 + below(n_suppliers)
                quantity = _QUANTITIES[1 + below(50)]
                extended = round(quantity * retail_price[partkey - 1], 2)
                discount = _HUNDREDTHS[below(11)]
                tax = _HUNDREDTHS[below(9)]
                ship_day = order_day + 1 + below(121)
                shipdate = _CALENDAR[ship_day]
                commitdate = _CALENDAR[order_day + 30 + below(61)]
                receiptdate = _CALENDAR[ship_day + 1 + below(30)]
                returnflag = "N" if receiptdate > cutoff else ("R", "A")[below(2)]
                if shipdate > cutoff:
                    linestatus = "O"
                    any_open = True
                else:
                    linestatus = "F"
                total_price += round(extended * (1 + tax) * (1 - discount), 2)
                l_orderkey.append(orderkey)
                l_partkey.append(partkey)
                l_suppkey.append(suppkey)
                l_linenumber.append(line_number)
                l_quantity.append(quantity)
                l_extendedprice.append(extended)
                l_discount.append(discount)
                l_tax.append(tax)
                l_returnflag.append(returnflag)
                l_linestatus.append(linestatus)
                l_shipdate.append(shipdate)
                l_commitdate.append(commitdate)
                l_receiptdate.append(receiptdate)
                l_shipinstruct.append(SHIP_INSTRUCTIONS[below(4)])
                l_shipmode.append(SHIP_MODES[below(7)])

            # an order has at least one line: it is filled unless one is open
            if not any_open:
                status = "F"
            else:
                status = "O" if rng.random() < 0.7 else "P"
            o_orderkey.append(orderkey)
            o_custkey.append(custkeys[custkey - 1])
            o_orderstatus.append(status)
            o_totalprice.append(round(total_price, 2))
            o_orderdate.append(_CALENDAR[order_day])
            o_orderpriority.append(PRIORITIES[below(5)])
            o_clerk.append(clerks[1 + below(n_clerks)])
            o_shippriority.append(0)
        orders = {
            "o_orderkey": o_orderkey, "o_custkey": o_custkey,
            "o_orderstatus": o_orderstatus, "o_totalprice": o_totalprice,
            "o_orderdate": o_orderdate, "o_orderpriority": o_orderpriority,
            "o_clerk": o_clerk, "o_shippriority": o_shippriority,
            "o_comment": self._texts("o_comment", n_orders, 5, 10, _special_requests)}
        lineitem = {
            "l_orderkey": l_orderkey, "l_partkey": l_partkey, "l_suppkey": l_suppkey,
            "l_linenumber": l_linenumber, "l_quantity": l_quantity,
            "l_extendedprice": l_extendedprice, "l_discount": l_discount,
            "l_tax": l_tax, "l_returnflag": l_returnflag,
            "l_linestatus": l_linestatus, "l_shipdate": l_shipdate,
            "l_commitdate": l_commitdate, "l_receiptdate": l_receiptdate,
            "l_shipinstruct": l_shipinstruct, "l_shipmode": l_shipmode,
            "l_comment": self._texts("l_comment", len(l_orderkey), 3, 6)}
        return orders, lineitem


def generate_catalog(scale_factor: float = 0.01, seed: int = 20160626) -> Catalog:
    """Convenience wrapper: ``TpchGenerator(scale_factor, seed).generate()``."""
    return TpchGenerator(scale_factor, seed).generate()
