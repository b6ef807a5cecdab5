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

The main stream is drawn as ``random.Random``'s ``randrange`` / ``randint`` /
``choice`` / ``sample`` / ``uniform`` draw it, written out over
``getrandbits`` the way :func:`draw_texts` is: ``below(n)`` is the rejection
loop of ``Random._randbelow``, its width ``n.bit_length()`` (2 bits for
``n = 2``) worked out once, and a call for at most 32 bits consumes exactly
one 32-bit word of the Mersenne Twister.  So every value and the generator
state afterwards are the standard library's.  A line's ``l_extendedprice``
is ``quantity * cents / 100.0`` with the part's ``p_retailprice`` in integer
cents, which is ``round(quantity * p_retailprice, 2)`` bit for bit: the
exact product has two decimals, and an exact integer divided by ``100.0`` is
the double nearest that two-decimal number, which is what ``round`` returns
too.  ``o_totalprice`` keeps its ``round``: its six-decimal products can tie.
"""
from __future__ import annotations

import random
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
_TOTAL_DAYS = 2405   # days from START_DATE to the last date, 1998-08-02

# Value tables: a row holds the table's object, not a fresh box, so a loaded
# column costs one object per *distinct* value; dates are drawn as day ordinals
# into ``_CALENDAR``, which also keeps ``datetime`` off the per-row path.
_CALENDAR = [dates.add_days(START_DATE, day) for day in range(_TOTAL_DAYS + 1)]
_QUANTITIES = [float(quantity) for quantity in range(51)]
_HUNDREDTHS = [percent / 100.0 for percent in range(11)]

# Each word list as (its first code in VOCABULARY, its size, the bit width
# ``Random.choice`` draws an index into it with).
_N_ADJECTIVES = len(ADJECTIVES)
_WORD_LISTS = ((0, _N_ADJECTIVES, _N_ADJECTIVES.bit_length()),
               (_N_ADJECTIVES, len(NOUNS), len(NOUNS).bit_length()),
               (_N_ADJECTIVES + len(NOUNS), len(VERBS), len(VERBS).bit_length()))

#: the words every text column is written in: a text holds one code (an
#: index here) per word; the last three are the markers Q16 and Q13 look for
VOCABULARY = tuple(ADJECTIVES + NOUNS + VERBS
                   + ["Customer", "Complaints", "special packages requests"])
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

    Every word picks one of the three word lists and then one word of that
    list — two draws a word — so the ``below`` loop is written out with the
    widths of the word lists precomputed.
    """
    getrandbits = rng.getrandbits
    below = draw_below(getrandbits)
    codes, ends = bytearray(), array("I")
    append = codes.append
    for _ in range(rows):
        start = len(codes)
        count = min_words + below(max_words - min_words + 1)
        for _ in range(count):
            pick = getrandbits(2)
            while pick >= 3:
                pick = getrandbits(2)
            first, size, width = _WORD_LISTS[pick]
            word = getrandbits(width)
            while word >= size:
                word = getrandbits(width)
            append(first + word)
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


def draw_sample(getrandbits, population: Sequence, k: int) -> list:
    """``Random.sample(population, k)`` for ``k <= 5``, written out over
    ``getrandbits`` as ``draw_below`` is: the same items with the same draws,
    so the generator state afterwards is the same too.

    Like ``sample``, it deals from a copy of a population no larger than a
    small set (21 slots while ``k <= 5``), and otherwise redraws an index it
    has already picked.
    """
    n = len(population)
    if not 0 <= k <= min(n, 5):
        raise ValueError(f"draw_sample draws 0 to 5 of {n} items, not {k}")
    if n <= 21:
        pool, picked = list(population), []
        for left in range(n, n - k, -1):
            width = left.bit_length()
            index = getrandbits(width)
            while index >= left:
                index = getrandbits(width)
            picked.append(pool[index])
            pool[index] = pool[left - 1]
        return picked
    width = n.bit_length()
    indices: List[int] = []
    for _ in range(k):
        index = getrandbits(width)
        while index >= n or index in indices:
            index = getrandbits(width)
        indices.append(index)
    return [population[index] for index in indices]


def _choose_words(getrandbits, word_lists) -> str:
    """One ``choice`` from each of ``word_lists`` (``(words, size, bit
    width)`` triples), joined by spaces."""
    chosen = []
    for words, size, width in word_lists:
        index = getrandbits(width)
        while index >= size:
            index = getrandbits(width)
        chosen.append(words[index])
    return " ".join(chosen)


_TYPE_SYLLABLES = tuple((words, len(words), len(words).bit_length()) for words
                        in (TYPE_SYLLABLE_1, TYPE_SYLLABLE_2, TYPE_SYLLABLE_3))
_CONTAINER_SYLLABLES = tuple((words, len(words), len(words).bit_length()) for words
                             in (CONTAINER_SYLLABLE_1, CONTAINER_SYLLABLE_2))


def _retail_cents(partkey: int) -> int:
    """``p_retailprice`` of part ``partkey`` in whole cents."""
    return 90000 + ((partkey // 10) % 20001) + 100 * (partkey % 1000)


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
            tables["customer"], tables["part"], tables["supplier"])
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
        getrandbits = self._rng.getrandbits
        exchange = getrandbits(10)                      # randint(100, 999)
        while exchange >= 900:
            exchange = getrandbits(10)
        number = getrandbits(10)                        # randint(100, 999)
        while number >= 900:
            number = getrandbits(10)
        line = getrandbits(14)                          # randint(1000, 9999)
        while line >= 9000:
            line = getrandbits(14)
        return f"{10 + nation_key}-{100 + exchange}-{100 + number}-{1000 + line}"

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
        getrandbits, random_ = self._rng.getrandbits, self._rng.random
        n = self._count("supplier")
        columns: Dict[str, List] = {name: [] for name in
                                    ("s_suppkey", "s_name", "s_nationkey",
                                     "s_phone", "s_acctbal")}
        for key in range(1, n + 1):
            nation = getrandbits(5)                     # randrange(len(NATIONS))
            while nation >= 25:
                nation = getrandbits(5)
            columns["s_suppkey"].append(key)
            columns["s_name"].append(f"Supplier#{key:09d}")
            columns["s_nationkey"].append(nation)
            columns["s_phone"].append(self._phone(nation))
            # uniform(-999.99, 9999.99)
            columns["s_acctbal"].append(
                round(-999.99 + (9999.99 - -999.99) * random_(), 2))
        columns["s_address"] = self._texts("s_address", n, 2, 4)
        columns["s_comment"] = self._texts("s_comment", n, 5, 10, _complaints)
        return columns

    def _gen_part(self) -> Dict[str, List]:
        getrandbits = self._rng.getrandbits
        n = self._count("part")
        columns: Dict[str, List] = {name: [] for name in
                                    ("p_partkey", "p_name", "p_mfgr", "p_brand", "p_type",
                                     "p_size", "p_container", "p_retailprice")}
        for key in range(1, n + 1):
            manufacturer = getrandbits(3)               # randint(1, 5)
            while manufacturer >= 5:
                manufacturer = getrandbits(3)
            brand = getrandbits(3)                      # randint(1, 5)
            while brand >= 5:
                brand = getrandbits(3)
            manufacturer += 1
            brand += manufacturer * 10 + 1              # its manufacturer's, 1-5
            name = " ".join(draw_sample(getrandbits, COLORS, 5))
            columns["p_partkey"].append(key)
            columns["p_name"].append(name)
            columns["p_mfgr"].append(f"Manufacturer#{manufacturer}")
            columns["p_brand"].append(f"Brand#{brand}")
            columns["p_type"].append(_choose_words(getrandbits, _TYPE_SYLLABLES))
            size = getrandbits(6)                       # randint(1, 50)
            while size >= 50:
                size = getrandbits(6)
            columns["p_size"].append(1 + size)
            columns["p_container"].append(
                _choose_words(getrandbits, _CONTAINER_SYLLABLES))
            columns["p_retailprice"].append(_retail_cents(key) / 100.0)
        columns["p_comment"] = self._texts("p_comment", n, 2, 5)
        return columns

    def _gen_partsupp(self, part: Dict[str, List], supplier: Dict[str, List]) -> Dict[str, List]:
        getrandbits, random_ = self._rng.getrandbits, self._rng.random
        n_supp = len(supplier["s_suppkey"])
        per_part = min(BASE_CARDINALITIES["partsupp_per_part"], n_supp)
        ps_partkey, ps_suppkey, ps_availqty, ps_supplycost = ([] for _ in range(4))
        for partkey in part["p_partkey"]:
            for suppkey in draw_sample(getrandbits, range(1, n_supp + 1), per_part):
                ps_partkey.append(partkey)
                ps_suppkey.append(suppkey)
                available = getrandbits(14)             # randint(1, 9999)
                while available >= 9999:
                    available = getrandbits(14)
                ps_availqty.append(1 + available)
                # uniform(1.0, 1000.0)
                ps_supplycost.append(round(1.0 + (1000.0 - 1.0) * random_(), 2))
        return {"ps_partkey": ps_partkey, "ps_suppkey": ps_suppkey,
                "ps_availqty": ps_availqty, "ps_supplycost": ps_supplycost,
                "ps_comment": self._texts("ps_comment", len(ps_partkey), 5, 12)}

    def _gen_customer(self) -> Dict[str, List]:
        getrandbits, random_ = self._rng.getrandbits, self._rng.random
        n = self._count("customer")
        columns: Dict[str, List] = {name: [] for name in
                                    ("c_custkey", "c_name", "c_nationkey",
                                     "c_phone", "c_acctbal", "c_mktsegment")}
        for key in range(1, n + 1):
            nation = getrandbits(5)                     # randrange(len(NATIONS))
            while nation >= 25:
                nation = getrandbits(5)
            columns["c_custkey"].append(key)
            columns["c_name"].append(f"Customer#{key:09d}")
            columns["c_nationkey"].append(nation)
            columns["c_phone"].append(self._phone(nation))
            # uniform(-999.99, 9999.99)
            columns["c_acctbal"].append(
                round(-999.99 + (9999.99 - -999.99) * random_(), 2))
            segment = getrandbits(3)                    # choice(SEGMENTS)
            while segment >= 5:
                segment = getrandbits(3)
            columns["c_mktsegment"].append(SEGMENTS[segment])
        columns["c_address"] = self._texts("c_address", n, 2, 4)
        columns["c_comment"] = self._texts("c_comment", n, 6, 12)
        return columns

    def _gen_orders_and_lineitems(self, customer, part, supplier):
        getrandbits, random_ = self._rng.getrandbits, self._rng.random
        n_orders = self._count("orders")
        # a foreign key is the referenced primary-key column's own int object
        custkeys = customer["c_custkey"]
        partkeys = part["p_partkey"]
        cents = [_retail_cents(key) for key in partkeys]
        n_customers, n_parts = len(custkeys), len(partkeys)
        n_suppliers = len(supplier["s_suppkey"])
        n_clerks = max(2, n_orders // 1000)
        clerks = [f"Clerk#{number:09d}" for number in range(1, n_clerks + 1)]
        lo_lines, hi_lines = BASE_CARDINALITIES["lineitems_per_order"]
        n_line_counts = hi_lines - lo_lines + 1
        n_order_days = _TOTAL_DAYS - 150
        # the width of every below(n) the rejection loops below write out:
        # n.bit_length(), as Random._randbelow draws it (2 bits for n = 2)
        customer_bits, part_bits = n_customers.bit_length(), n_parts.bit_length()
        supplier_bits, clerk_bits = n_suppliers.bit_length(), n_clerks.bit_length()
        line_count_bits, order_day_bits = (n_line_counts.bit_length(),
                                           n_order_days.bit_length())

        (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate,
         o_orderpriority, o_clerk, o_shippriority) = ([] for _ in range(8))
        (l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity,
         l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus,
         l_shipdate, l_commitdate, l_receiptdate, l_shipinstruct,
         l_shipmode) = ([] for _ in range(15))
        cutoff = dates.date_to_int("1995-06-17")

        for orderkey in range(1, n_orders + 1):
            # As in official dbgen, one third of the customers never place an
            # order (keys divisible by three), which keeps Q13/Q22 meaningful.
            customer_index = getrandbits(customer_bits)
            while customer_index >= n_customers or customer_index % 3 == 2:
                customer_index = getrandbits(customer_bits)
            # order dates leave room for shipping within the 1992-1998 window
            order_day = getrandbits(order_day_bits)
            while order_day >= n_order_days:
                order_day = getrandbits(order_day_bits)
            lines = getrandbits(line_count_bits)
            while lines >= n_line_counts:
                lines = getrandbits(line_count_bits)
            total_price = 0.0
            any_open = False
            for line_number in range(1, lo_lines + lines + 1):
                part_index = getrandbits(part_bits)
                while part_index >= n_parts:
                    part_index = getrandbits(part_bits)
                suppkey = getrandbits(supplier_bits)
                while suppkey >= n_suppliers:
                    suppkey = getrandbits(supplier_bits)
                quantity = getrandbits(6)               # below(50)
                while quantity >= 50:
                    quantity = getrandbits(6)
                quantity += 1
                # round(quantity * p_retailprice, 2) to the bit: see the module
                extended = quantity * cents[part_index] / 100.0
                percent = getrandbits(4)                # below(11)
                while percent >= 11:
                    percent = getrandbits(4)
                discount = _HUNDREDTHS[percent]
                percent = getrandbits(4)                # below(9)
                while percent >= 9:
                    percent = getrandbits(4)
                tax = _HUNDREDTHS[percent]
                ship_day = getrandbits(7)               # below(121)
                while ship_day >= 121:
                    ship_day = getrandbits(7)
                ship_day += order_day + 1
                commit_day = getrandbits(6)             # below(61)
                while commit_day >= 61:
                    commit_day = getrandbits(6)
                receipt_day = getrandbits(5)            # below(30)
                while receipt_day >= 30:
                    receipt_day = getrandbits(5)
                shipdate = _CALENDAR[ship_day]
                receiptdate = _CALENDAR[ship_day + 1 + receipt_day]
                if receiptdate > cutoff:
                    returnflag = "N"
                else:
                    flag = getrandbits(2)               # below(2)
                    while flag >= 2:
                        flag = getrandbits(2)
                    returnflag = ("R", "A")[flag]
                if shipdate > cutoff:
                    linestatus = "O"
                    any_open = True
                else:
                    linestatus = "F"
                total_price += round(extended * (1 + tax) * (1 - discount), 2)
                instruction = getrandbits(3)            # below(4)
                while instruction >= 4:
                    instruction = getrandbits(3)
                mode = getrandbits(3)                   # below(7)
                while mode >= 7:
                    mode = getrandbits(3)
                l_orderkey.append(orderkey)
                l_partkey.append(partkeys[part_index])
                l_suppkey.append(1 + suppkey)
                l_linenumber.append(line_number)
                l_quantity.append(_QUANTITIES[quantity])
                l_extendedprice.append(extended)
                l_discount.append(discount)
                l_tax.append(tax)
                l_returnflag.append(returnflag)
                l_linestatus.append(linestatus)
                l_shipdate.append(shipdate)
                l_commitdate.append(_CALENDAR[order_day + 30 + commit_day])
                l_receiptdate.append(receiptdate)
                l_shipinstruct.append(SHIP_INSTRUCTIONS[instruction])
                l_shipmode.append(SHIP_MODES[mode])

            # an order has at least one line: it is filled unless one is open
            if not any_open:
                status = "F"
            else:
                status = "O" if random_() < 0.7 else "P"
            priority = getrandbits(3)                   # below(5)
            while priority >= 5:
                priority = getrandbits(3)
            clerk = getrandbits(clerk_bits)
            while clerk >= n_clerks:
                clerk = getrandbits(clerk_bits)
            o_orderkey.append(orderkey)
            o_custkey.append(custkeys[customer_index])
            o_orderstatus.append(status)
            o_totalprice.append(round(total_price, 2))
            o_orderdate.append(_CALENDAR[order_day])
            o_orderpriority.append(PRIORITIES[priority])
            o_clerk.append(clerks[clerk])
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
