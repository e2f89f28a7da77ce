"""`successor`, the next canonical word, checked against the oracle's order
and then used as a referee for `rank` and `unrank` past the oracle's reach."""

import random

import pytest

from motzkin.weights import rank, unrank
from motzkin.word_model import Word

from long_words import canonical_text
from successor import successor


def test_the_successor_follows_the_enumeration_through_length_12(words_through):
    texts = [w.text for w in words_through(12)]
    assert texts[0] == "0"
    assert [successor(text) for text in texts[:-1]] == texts[1:]


@pytest.mark.parametrize("cap", [None, 0])  # as shipped, then every call walked
def test_rank_and_unrank_step_to_the_successor_on_long_words(cap, empty_table, force_cap):
    if cap is not None:
        force_cap(cap)
    rng = random.Random(29)
    texts = [canonical_text([rng.randrange(256) for _ in range(n)])
             for n in (1000, 2500, 6000, 10_000)]
    # As shipped, the 1000-symbol word is read off the table, `unrank` of the
    # 2500-symbol one hands over to the walk mid-word, and the others walk
    # from their first symbol.  The last word is its length's greatest.
    for text in [*texts, "()" * 1500]:
        following = successor(text)
        r = rank(Word(text))
        assert rank(Word(following)) == r + 1, len(text)
        assert unrank(r + 1).text == following, len(text)
