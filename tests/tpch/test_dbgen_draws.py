"""The generator's draw kernels are the standard library's draws.

``draw_below``, ``draw_sample``, the written-out word loop of ``draw_texts``
and the rejection loops the table generators write out over
``Random.getrandbits`` replace ``Random.randint`` / ``randrange`` /
``choice`` / ``sample`` / ``uniform``; these tests run both sides from one
seed and require the same values *and* the same generator state afterwards —
the property the golden digests of ``test_dbgen_identity.py`` rest on.
``draw_texts`` returns word codes; its rows are read back through
``TextColumn``'s decoding.
"""
import random
from collections import defaultdict

import pytest

from repro import dates
from repro.storage.layouts import TextColumn
from repro.tpch.dbgen import (
    ADJECTIVES, BASE_CARDINALITIES, COLORS, CONTAINER_SYLLABLE_1, CONTAINER_SYLLABLE_2,
    NATIONS, NOUNS, PRIORITIES, REGIONS, SEGMENTS, SHIP_INSTRUCTIONS, SHIP_MODES,
    START_DATE, TYPE_SYLLABLE_1, TYPE_SYLLABLE_2, TYPE_SYLLABLE_3, VERBS, VOCABULARY,
    TpchGenerator, _complaints, _retail_cents, _special_requests, draw_below,
    draw_sample, draw_texts)

DRAWS = 10_000
SIZES = [1, 2, 3, 2 ** 5, 2 ** 5 + 1, 2 ** 17, 2 ** 17 + 1, 10 ** 6]


@pytest.mark.parametrize("n", SIZES)
class TestDrawBelow:
    def pair(self, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        return draw_below(ours.getrandbits), ours, theirs

    def test_is_randrange(self, n):
        below, ours, theirs = self.pair(n)
        assert [below(n) for _ in range(DRAWS)] == \
            [theirs.randrange(n) for _ in range(DRAWS)]
        assert ours.getstate() == theirs.getstate()

    def test_is_randint(self, n):
        below, ours, theirs = self.pair(n + 1)
        assert [5 + below(n) for _ in range(DRAWS)] == \
            [theirs.randint(5, 5 + n - 1) for _ in range(DRAWS)]
        assert ours.getstate() == theirs.getstate()

    def test_is_choice(self, n):
        below, ours, theirs = self.pair(n + 2)
        population = range(100, 100 + n)
        assert [population[below(n)] for _ in range(DRAWS)] == \
            [theirs.choice(population) for _ in range(DRAWS)]
        assert ours.getstate() == theirs.getstate()


def reference_text(rng, min_words=4, max_words=10, inject="",
                   inject_probability=0.0):
    """``draw_texts``'s row as it was written over ``random.Random``."""
    words = []
    for _ in range(rng.randint(min_words, max_words)):
        words.append(rng.choice(rng.choice([ADJECTIVES, NOUNS, VERBS])))
    if inject and rng.random() < inject_probability:
        words.insert(rng.randint(0, len(words)), inject)
    return " ".join(words)


def write_texts(rng, rows, min_words, max_words, marker=None):
    """``rows`` texts drawn by ``draw_texts`` from ``rng``, decoded."""
    codes, ends = draw_texts(rng, rows, min_words, max_words, marker)
    text = TextColumn(VOCABULARY, rows, lambda: (codes, ends))
    assert len(text) == len(ends) == rows
    return text.decode()


def reference_complaints(rng, min_words, max_words):
    """A supplier comment, Q16's marker appended to ~8 % of them."""
    text = reference_text(rng, min_words, max_words)
    if rng.random() < 0.08:
        text += f" Customer {rng.choice(ADJECTIVES)} Complaints"
    return text


class TestText:
    def test_is_the_reference_on_both_marker_branches(self):
        ours, rng = random.Random(11), random.Random(11)
        texts = write_texts(ours, 2_000, 5, 10, _special_requests)
        assert texts == [reference_text(rng, 5, 10, inject="special packages requests",
                                        inject_probability=0.05)
                         for _ in range(2_000)]
        assert ours.getstate() == rng.getstate()
        assert 0 < sum("special packages requests" in text for text in texts) < 2_000

    def test_complaints_are_the_reference(self):
        ours, rng = random.Random(5), random.Random(5)
        texts = write_texts(ours, 2_000, 5, 10, _complaints)
        assert texts == [reference_complaints(rng, 5, 10) for _ in range(2_000)]
        assert ours.getstate() == rng.getstate()
        assert 0 < sum(text.endswith(" Complaints") for text in texts) < 2_000

    def test_plain_text_and_phone_are_the_reference(self):
        generator, rng = TpchGenerator(0.001, seed=3), random.Random(3)
        ours, theirs = random.Random(4), random.Random(4)
        for nation in range(25):
            assert write_texts(ours, 1, 3, 6) == [reference_text(theirs, 3, 6)]
            assert generator._phone(nation) == (
                f"{10 + nation}-{rng.randint(100, 999)}"
                f"-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}")
        assert generator._rng.getstate() == rng.getstate()
        assert ours.getstate() == theirs.getstate()


class TestSample:
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 10, 20, 21, 22, 30, len(COLORS), 10_000])
    def test_is_sample_on_both_branches(self, n):
        ours, theirs = random.Random(n), random.Random(n)
        population = range(1, n + 1)
        for k in range(min(n, 5) + 1):
            for _ in range(200):
                assert draw_sample(ours.getrandbits, population, k) == \
                    theirs.sample(population, k)
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n,k", [(3, 4), (10, 6), (10, -1)])
    def test_refuses_what_it_does_not_draw_as_sample_does(self, n, k):
        with pytest.raises(ValueError):
            draw_sample(random.Random(1).getrandbits, range(n), k)


def reference_tables(scale_factor, seed):
    """Every non-text column as the generator drew it over ``random.Random``'s
    public methods and ``round(quantity * price, 2)``, and the main stream
    afterwards."""
    rng = random.Random(seed)
    columns = defaultdict(list)

    def count(table):
        return max(1, int(round(BASE_CARDINALITIES[table] * scale_factor)))

    def add(table, **row):
        for column, value in row.items():
            columns[f"{table}.{column}"].append(value)

    def phone(nation):
        return (f"{10 + nation}-{rng.randint(100, 999)}"
                f"-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}")

    for key, name in enumerate(REGIONS):
        add("region", r_regionkey=key, r_name=name)
    for key, (name, region) in enumerate(NATIONS):
        add("nation", n_nationkey=key, n_name=name, n_regionkey=region)
    for key in range(1, count("supplier") + 1):
        nation = rng.randrange(len(NATIONS))
        add("supplier", s_suppkey=key, s_name=f"Supplier#{key:09d}",
            s_nationkey=nation, s_phone=phone(nation),
            s_acctbal=round(rng.uniform(-999.99, 9999.99), 2))
    for key in range(1, count("part") + 1):
        manufacturer = rng.randint(1, 5)
        brand = manufacturer * 10 + rng.randint(1, 5)
        add("part", p_partkey=key, p_name=" ".join(rng.sample(COLORS, 5)),
            p_mfgr=f"Manufacturer#{manufacturer}", p_brand=f"Brand#{brand}",
            p_type=" ".join([rng.choice(TYPE_SYLLABLE_1), rng.choice(TYPE_SYLLABLE_2),
                             rng.choice(TYPE_SYLLABLE_3)]),
            p_size=rng.randint(1, 50),
            p_container=" ".join([rng.choice(CONTAINER_SYLLABLE_1),
                                  rng.choice(CONTAINER_SYLLABLE_2)]),
            p_retailprice=round(90000 + ((key // 10) % 20001) + 100 * (key % 1000), 2)
            / 100.0)
    n_suppliers = count("supplier")
    for partkey in columns["part.p_partkey"]:
        for suppkey in rng.sample(range(1, n_suppliers + 1), min(4, n_suppliers)):
            add("partsupp", ps_partkey=partkey, ps_suppkey=suppkey,
                ps_availqty=rng.randint(1, 9999),
                ps_supplycost=round(rng.uniform(1.0, 1000.0), 2))
    for key in range(1, count("customer") + 1):
        nation = rng.randrange(len(NATIONS))
        add("customer", c_custkey=key, c_name=f"Customer#{key:09d}",
            c_nationkey=nation, c_phone=phone(nation),
            c_acctbal=round(rng.uniform(-999.99, 9999.99), 2),
            c_mktsegment=rng.choice(SEGMENTS))

    n_orders, n_customers = count("orders"), count("customer")
    n_clerks = max(2, n_orders // 1000)
    prices = columns["part.p_retailprice"]
    cutoff = dates.date_to_int("1995-06-17")
    for orderkey in range(1, n_orders + 1):
        custkey = rng.randint(1, n_customers)
        while custkey % 3 == 0:
            custkey = rng.randint(1, n_customers)
        order_day = rng.randrange(2255)
        total_price, any_open = 0.0, False
        for line_number in range(1, rng.randint(1, 7) + 1):
            partkey = rng.randint(1, len(prices))
            suppkey = rng.randint(1, n_suppliers)
            quantity = float(rng.randint(1, 50))
            extended = round(quantity * prices[partkey - 1], 2)
            discount = rng.randint(0, 10) / 100.0
            tax = rng.randint(0, 8) / 100.0
            ship_day = order_day + rng.randint(1, 121)
            commitdate = dates.add_days(START_DATE, order_day + rng.randint(30, 90))
            receiptdate = dates.add_days(START_DATE, ship_day + rng.randint(1, 30))
            shipdate = dates.add_days(START_DATE, ship_day)
            returnflag = "N" if receiptdate > cutoff else rng.choice(["R", "A"])
            any_open = any_open or shipdate > cutoff
            total_price += round(extended * (1 + tax) * (1 - discount), 2)
            add("lineitem", l_orderkey=orderkey, l_partkey=partkey, l_suppkey=suppkey,
                l_linenumber=line_number, l_quantity=quantity, l_extendedprice=extended,
                l_discount=discount, l_tax=tax, l_returnflag=returnflag,
                l_linestatus="O" if shipdate > cutoff else "F", l_shipdate=shipdate,
                l_commitdate=commitdate, l_receiptdate=receiptdate,
                l_shipinstruct=rng.choice(SHIP_INSTRUCTIONS),
                l_shipmode=rng.choice(SHIP_MODES))
        status = ("O" if rng.random() < 0.7 else "P") if any_open else "F"
        add("orders", o_orderkey=orderkey, o_custkey=custkey, o_orderstatus=status,
            o_totalprice=round(total_price, 2),
            o_orderdate=dates.add_days(START_DATE, order_day),
            o_orderpriority=rng.choice(PRIORITIES),
            o_clerk=f"Clerk#{rng.randint(1, n_clerks):09d}", o_shippriority=0)
    return columns, rng


@pytest.mark.parametrize("scale_factor", [0.001, 0.002])
def test_every_non_text_column_is_the_reference(scale_factor):
    expected, rng = reference_tables(scale_factor, 20160626)
    generator = TpchGenerator(scale_factor, 20160626)
    catalog = generator.generate()
    drawn = {f"{table}.{column}": values
             for table in catalog.table_names()
             for column, values in catalog.table(table).columns.items()
             if type(values) is not TextColumn}
    assert sorted(drawn) == sorted(expected)
    for name, values in drawn.items():
        assert [(type(value), repr(value)) for value in values] == \
            [(type(value), repr(value)) for value in expected[name]], name
    assert generator._rng.getstate() == rng.getstate()


def test_a_line_priced_in_cents_is_the_rounded_float_product():
    """``q * cents / 100.0 == round(float(q) * (cents / 100.0), 2)``.

    ``q * cents`` is an exact integer far below 2**53, and IEEE division is
    correctly rounded, so the left side is the double nearest to the
    two-decimal number ``q * cents / 100``.  The float product on the right
    is within a few units in its last place of that number, far less than
    half a cent; ``round(x, 2)`` rounds the exact decimal value of ``x`` to
    two places and returns the double nearest the result, so it lands on the
    same two-decimal number and the same double.  (``o_totalprice``'s sum of
    six-decimal products has no such margin: ties can occur, so it keeps its
    ``round``.)  Checked for every quantity against every price the part
    table has at sf 0.05, and for a seeded sample over the sf 1 key domain.
    """
    part = TpchGenerator(0.05)._gen_part()
    cents = [_retail_cents(key) for key in part["p_partkey"]]
    assert [cent / 100.0 for cent in cents] == part["p_retailprice"]
    assert [(q, cent) for q in range(1, 51) for cent in cents
            if q * cent / 100.0 != round(float(q) * (cent / 100.0), 2)] == []
    rng = random.Random(20160626)
    pairs = [(rng.randint(1, 50), _retail_cents(rng.randint(1, 200_000)))
             for _ in range(100_000)]
    assert [(q, cent) for q, cent in pairs
            if q * cent / 100.0 != round(float(q) * (cent / 100.0), 2)] == []
