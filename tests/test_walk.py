"""The table-free walk: `sequences._step`, its start `sequences._walk_state`,
and the calls of `weights` that walk.

`force_cap(math.inf)` never walks.  `force_cap(0)` walks every `rank` and
`decompose` from the first symbol, and `unrank` from its first '(' count
that the table lacks, so a test that checks `unrank`'s walk alone starts it
from an empty table.  Each path is checked on its own against the oracle,
and `ballot_sum` checks the walk's step at rows up to 10^4.
"""

import math
import random
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings

from motzkin import oracle, sequences, weights
from motzkin.weights import decompose, rank, unrank
from motzkin.word_model import Word

from ballot_sum import ballot_completions
from child_python import run_python
from long_words import canonical_text, canonical_texts

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


@pytest.mark.parametrize("r, h", [(10**4, 0), (10**4, 37), (3000, 900), (1000, 10)])
def test_the_step_holds_far_down_long_paths_by_the_ballot_sum(r, h):
    c = ballot_completions
    for rise in ((0, 1) if h == 0 else (-1, 0, 1)):
        g = h + rise
        assert sequences._step(r, h, c(r, h), c(r, h + 1), rise) == (
            c(r - 1, g), c(r - 1, g + 1)), rise


def test_the_walk_state_reads_no_column_above_its_height(monkeypatch):
    c = oracle.completions
    for r in range(40):
        for h in range(r + 2):
            monkeypatch.setattr(sequences, "_columns", [[1, 1]])
            assert sequences._walk_state(r, h) == (c(r, h), c(r, h + 1)), (r, h)
            assert len(sequences._columns) <= h + 1, (r, h)


def test_walk_and_table_agree_on_every_word_through_length_12(
        monkeypatch, fresh_state, force_cap, words_through):
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
def test_walked_long_words_match_the_oracle_and_round_trip(force_cap, record, text):
    # fixtures run once per test, not per example, so each example empties the table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_columns", [[1, 1]])
        force_cap(0)
        w = Word(text)
        r = rank(w)
        d = decompose(w)
        assert r == d.total == oracle.rank_by_counting(w)
        steps = record(sequences, "_step", patch=patch)
        assert unrank(r) == w
        assert len(steps) == len(text) - 1  # walked from its first symbol
        force_cap(math.inf)  # a weight in the wrong slot keeps the total right
        assert decompose(w).entries == d.entries


@pytest.mark.parametrize("cap", [2, 3, 5])
def test_unrank_hands_over_mid_word_and_no_call_grows_the_cap_column(
        cap, fresh_state, force_cap, record):
    force_cap(cap)
    handovers = record(weights, "_unrank_walk",
                       lambda symbols, offset, left, *state: (len(symbols), left))
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


def _column_lengths():
    return [len(column) for column in sequences._columns]


def test_unrank_reads_columns_another_call_stored_at_or_above_the_cap(
        monkeypatch, fresh_state, force_cap):
    sequences.completions(60, 8)  # columns 0 .. 8 through row 60 or more
    lengths = _column_lengths()
    force_cap(3)
    monkeypatch.setattr(sequences, "_step", _refuse)
    text = "((0((00(((0)))0)))0)"  # reaches height 7
    assert unrank(oracle.rank_by_counting(Word(text))).text == text
    assert _column_lengths() == lengths


@pytest.mark.parametrize("text, first_miss", [
    ("((((0))))" + "0" * 30, 2),  # the first bracket at height 2 reads column 3 at row 36
    ("(" + "0" * 30 + "((0))" + ")", 34),  # column 3 holds row 4; the ')' misses column 4
])
def test_unrank_walks_from_its_first_miss_and_grows_no_column_at_or_above_the_cap(
        text, first_miss, fresh_state, force_cap, record):
    sequences.completions(5, 3)  # column 3 through row 5 only
    lengths = _column_lengths()
    force_cap(3)
    handovers = record(weights, "_unrank_walk", lambda symbols, *state: len(symbols))
    assert unrank(oracle.rank_by_counting(Word(text))).text == text
    assert handovers == [first_miss]
    assert _column_lengths()[3:] == lengths[3:]


def test_the_deepest_words_walk_from_478_symbols_on(fresh_state, record):
    # The cap as shipped: below 478 symbols n // 2 + 1 < _cap(n), so even the
    # deepest word reads only stored columns; at 478 its innermost pair reaches
    # the cap.
    assert weights._cap(478) == 240
    assert weights._cap(1000) == 55
    steps = record(sequences, "_step")
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


def test_each_column_above_0_stays_under_its_share_of_the_budget_across_calls(fresh_state):
    # Column c grows only for words with _cap(L) > c, so it holds at most
    # _WALK_BUDGET_BITS / c bits whichever calls grew it: a deep table-path
    # word for every cap from _cap(2000) to _cap(478), then random words.
    depths = {weights._cap(length) - 3: length for length in range(478, 2001)}
    texts = ["(" * d + "0" * (length - 2 * d) + ")" * d for d, length in sorted(depths.items())]
    rng = random.Random(41)
    texts += [canonical_text(rng.randbytes(rng.randint(200, 2000))) for _ in range(40)]
    for text in texts:
        w = Word(text)
        assert unrank(rank(w)) == w
    columns = sequences._columns
    assert len(columns) > 200
    for c, column in enumerate(columns[1:], 1):
        assert sum(x.bit_length() for x in column) * c < weights._WALK_BUDGET_BITS, c


def test_a_deep_word_of_10000_symbols_stays_under_1_gib():
    # The table path would grow about 25 GB of columns for this word.
    proc = run_python("-c", """
from motzkin import sequences, weights
from motzkin.word_model import Word

w = Word("(" * 5000 + ")" * 5000)
r = weights.rank(w)
d = weights.decompose(w)
assert d.total == r and len(d.entries) == 5000
assert sequences.motzkin_number(9999) <= r < sequences.motzkin_number(10000)
assert weights.unrank(r) == w
print(len(sequences._columns))
""", memory=GIB)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_a_flat_word_of_40000_symbols_walks_under_350_mb():
    # Column 0 holds about 176 MB here and the weights about 80 MB; a term
    # kept per symbol, as much again as column 0, would not fit.
    proc = run_python("-c", """
from motzkin import sequences, weights
from motzkin.word_model import Word

w = Word("()" * 20000)
r = weights.rank(w)
d = weights.decompose(w)
assert d.total == r and len(d.entries) == 20000
print(len(sequences._columns))
""", memory=350 << 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
