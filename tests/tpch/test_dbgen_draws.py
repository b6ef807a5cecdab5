"""The generator's draw kernels are the standard library's draws.

``draw_below`` and the written-out loop of the text writer
``TpchGenerator._text`` replace ``Random.randint`` / ``randrange`` /
``choice``; these tests run both sides from one seed and require the same
values *and* the same generator state afterwards — the property the golden
digests of ``test_dbgen_identity.py`` rest on.  The writer appends word
codes; its rows are read back through ``ColumnarTable.column``'s decoding.
"""
import random

import pytest

from repro.storage.layouts import TextColumn
from repro.tpch.dbgen import (ADJECTIVES, NOUNS, VERBS, TpchGenerator, _TextWriter,
                              draw_below)

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
    """``TpchGenerator._text`` as it was written over ``random.Random``."""
    words = []
    for _ in range(rng.randint(min_words, max_words)):
        words.append(rng.choice([rng.choice(ADJECTIVES), rng.choice(NOUNS),
                                 rng.choice(VERBS)]))
    if inject and rng.random() < inject_probability:
        words.insert(rng.randint(0, len(words)), inject)
    return " ".join(words)


def write_texts(generator, rows, min_words, max_words, **kwargs):
    """``rows`` texts through the coded writer, decoded."""
    column = _TextWriter()
    for _ in range(rows):
        generator._text(column, min_words, max_words, **kwargs)
        column.end_row()
    text = column.finish()
    assert isinstance(text, TextColumn) and len(text) == rows
    return text.decode()


class TestText:
    @pytest.mark.parametrize("probability", [0.0, 0.05, 1.0])
    def test_is_the_reference_on_both_inject_branches(self, probability):
        generator, rng = TpchGenerator(0.001, seed=11), random.Random(11)
        ours = write_texts(generator, 2_000, 5, 10, inject_probability=probability)
        assert ours == [reference_text(rng, 5, 10, inject="special packages requests",
                                       inject_probability=probability)
                        for _ in range(2_000)]
        assert generator._rng.getstate() == rng.getstate()
        injected = sum("special packages requests" in text for text in ours)
        assert injected == {0.0: 0, 1.0: 2_000}.get(probability, injected)
        if probability == 0.05:
            assert 0 < injected < 2_000

    def test_plain_text_and_phone_are_the_reference(self):
        generator, rng = TpchGenerator(0.001, seed=3), random.Random(3)
        for nation in range(25):
            assert write_texts(generator, 1, 3, 6) == [reference_text(rng, 3, 6)]
            assert generator._phone(nation) == (
                f"{10 + nation}-{rng.randint(100, 999)}"
                f"-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}")
        assert generator._rng.getstate() == rng.getstate()
