"""The generator's draw kernels are the standard library's draws.

``draw_below`` and the written-out word loop of ``draw_texts`` replace
``Random.randint`` / ``randrange`` / ``choice``; these tests run both sides
from one seed and require the same values *and* the same generator state
afterwards — the property the golden digests of ``test_dbgen_identity.py``
rest on.  ``draw_texts`` returns word codes; its rows are read back through
``TextColumn``'s decoding.
"""
import random

import pytest

from repro.storage.layouts import TextColumn
from repro.tpch.dbgen import (ADJECTIVES, NOUNS, VERBS, VOCABULARY, TpchGenerator,
                              _complaints, _special_requests, draw_below, draw_texts)

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
