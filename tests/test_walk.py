"""The table-free walk: `sequences._step` and the calls of `weights` that walk.

`force_cap(0)` walks every word from its first symbol and `force_cap(math.inf)`
never walks, so each path is checked on its own against the oracle.
"""

import math
import os
import random
import resource
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from motzkin import oracle, sequences, weights
from motzkin.weights import decompose, rank, unrank
from motzkin.word_model import Word

from long_words import canonical_text, canonical_texts

ROOT = Path(__file__).resolve().parent.parent
GIB = 1 << 30


def _refuse(*args):
    raise AssertionError(f"called on the other path with {args}")


def test_the_step_moves_the_state_one_symbol_down_the_path():
    c = oracle.completions
    for r in range(1, 160):
        for h in range(r + 1):
            for rise in ((0, 1) if h == 0 else (-1, 0, 1)):
                g = h + rise
                assert sequences._step(r, h, c(r, h), c(r, h + 1), rise) == (
                    c(r - 1, g), c(r - 1, g + 1)), (r, h, rise)


def test_walk_and_table_agree_on_every_word_through_length_12(
        monkeypatch, empty_table, force_cap, words_through):
    words = words_through(12)
    sides = []
    for cap, other_path in ((0, (weights, "pair_nest_weight")), (math.inf, (sequences, "_step"))):
        force_cap(cap)
        monkeypatch.setattr(*other_path, _refuse)
        entries = []
        for position, w in enumerate(words):
            d = decompose(w)
            assert rank(w) == d.total == oracle.rank_by_counting(w) == position
            assert unrank(position) == w
            entries.append(d.entries)
        sides.append(entries)
        if cap == 0:  # a walked call reads column 0 alone
            assert len(sequences._columns) == 1
        monkeypatch.undo()
    assert sides[0] == sides[1]


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(canonical_texts())
def test_walked_long_words_match_the_oracle_and_round_trip(force_cap, text):
    force_cap(0)
    w = Word(text)
    r = rank(w)
    assert r == decompose(w).total == oracle.rank_by_counting(w)
    assert unrank(r) == w


@pytest.mark.parametrize("cap", [2, 3, 5])
def test_unrank_hands_over_mid_word_and_no_call_reads_the_cap_column(
        cap, monkeypatch, empty_table, force_cap):
    force_cap(cap)
    handovers = []
    true_walk = weights._unrank_walk

    def recorded(symbols, offset, left, *state):
        handovers.append((len(symbols), left))
        return true_walk(symbols, offset, left, *state)

    monkeypatch.setattr(weights, "_unrank_walk", recorded)
    rng = random.Random(cap)
    texts = [canonical_text([rng.randrange(6) for _ in range(n)]) for n in (30, 80, 200)]
    # the last word's deepest pair, at depth cap - 2, reads column cap at row cap + 1
    for text in ["(0(0)((0)0)0)00", "()(()(((00)))0)", *texts,
                 "(" * (cap - 1) + ")" * (cap - 1) + "000"]:
        handovers.clear()
        w = Word(text)
        r = oracle.rank_by_counting(w)
        assert rank(w) == decompose(w).total == r
        assert unrank(r) == w
        heights = list(accumulate((c == "(") - (c == ")") for c in "0" + text))
        # the walk takes over at the first bracket after height cap - 1
        first = [pos for pos, c in enumerate(text) if c != "0" and heights[pos] == cap - 1]
        assert handovers == [(pos, len(text) - 1 - pos) for pos in first[:1]]
    assert len(sequences._columns) == cap  # columns 0 .. cap - 1, never cap itself


def test_the_deepest_words_walk_from_478_symbols_on(monkeypatch, empty_table):
    # The cap as shipped: below 478 symbols n // 2 + 1 < _cap(n), so even the
    # deepest word reads only stored columns; at 478 its innermost pair reaches
    # _cap(478) = 240.
    steps = []
    true_step = sequences._step

    def counted(*args):
        steps.append(args)
        return true_step(*args)

    monkeypatch.setattr(sequences, "_step", counted)
    for length in range(470, 479):
        w = Word("(" * (length // 2) + ")" * (length // 2) + "0" * (length % 2))
        r = oracle.rank_by_counting(w)
        counts = []
        for call, arg, answer in ((rank, w, r), (decompose, w, None), (unrank, r, w)):
            steps.clear()
            result = call(arg)
            assert answer is None or result == answer
            counts.append(len(steps))
        if length < 478:
            assert counts == [0, 0, 0], length
        else:
            assert 0 not in counts


def test_a_deep_word_of_10000_symbols_stays_under_1_gib():
    # The table path would grow about 25 GB of columns for this word.
    probe = """
from motzkin import sequences, weights
from motzkin.word_model import Word

w = Word("(" * 5000 + ")" * 5000)
r = weights.rank(w)
d = weights.decompose(w)
assert d.total == r and len(d.entries) == 5000
assert sequences.motzkin_number(9999) <= r < sequences.motzkin_number(10000)
assert weights.unrank(r) == w
print(len(sequences._columns))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (GIB, GIB)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
