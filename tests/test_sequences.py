import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from motzkin import oracle, sequences, weights
from motzkin.errors import DomainViolationError
from motzkin.word_model import Word

from ballot_sum import ballot_completions

MOTZKIN = [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835, 113634]
UNIQUE = [1, 1, 2, 5, 12, 30, 76, 196, 512, 1353, 3610, 9713, 26324, 71799]
DELTA = [0, 1, 3, 8, 21, 55, 145, 385, 1030, 2775, 7525, 20526, 56288]
DELTA_PRIME = [0, 1, 4, 13, 39, 113, 322, 910, 2562, 7203, 20251, 56980, 160524]


@pytest.mark.parametrize("n, expected", enumerate(MOTZKIN))
def test_motzkin_reference_values(n, expected):
    assert sequences.motzkin_number(n) == expected


@pytest.mark.parametrize("n, expected", enumerate(UNIQUE, start=1))
def test_unique_count_reference_values(n, expected):
    assert sequences.unique_count(n) == expected


@pytest.mark.parametrize("k, expected", enumerate(DELTA, start=1))
def test_delta_reference_values(k, expected):
    assert sequences.delta(k) == expected


@pytest.mark.parametrize("k, expected", enumerate(DELTA_PRIME, start=2))
def test_delta_prime_reference_values(k, expected):
    assert sequences.delta_prime(k) == expected


@pytest.mark.parametrize("fn, bad", [
    (sequences.motzkin_number, -1),
    (sequences.unique_count, 0),
    (sequences.delta, 0),
    (sequences.delta_prime, 1),
])
def test_domain_errors(fn, bad):
    with pytest.raises(DomainViolationError):
        fn(bad)


def test_unique_counts_telescope_to_motzkin():
    # the number of canonical words of length <= n is M_n
    for n in range(1, 31):
        total = sum(sequences.unique_count(m) for m in range(1, n + 1))
        assert total == sequences.motzkin_number(n)


def test_delta_prime_cross_identity():
    for k in range(2, 51):
        assert sequences.delta_prime(k) == (
            sequences.delta(k + 1) - sequences.delta(k) - sequences.motzkin_number(k))


def test_completions_spot_values_and_domain():
    assert sequences.completions(0, 0) == 1
    assert sequences.completions(3, 1) == 5
    assert sequences.completions(5, 5) == 1
    assert sequences.completions(4, 9) == 0
    for bad in [(-1, 0), (3, -2)]:
        with pytest.raises(DomainViolationError):
            sequences.completions(*bad)


def test_paper_sequences_are_identities_of_the_completion_table():
    c = sequences.completions
    for n in range(60):
        assert sequences.motzkin_number(n) == c(n, 0)
    for n in range(2, 60):
        assert sequences.unique_count(n) == c(n - 1, 1)
    for k in range(1, 60):
        assert sequences.delta(k) == c(k - 1, 1) + c(k - 1, 2)
    for k in range(2, 60):
        assert sequences.delta_prime(k) == c(k - 1, 2) + c(k - 1, 3)


def test_concurrent_growth_neither_duplicates_nor_skips_rows(fresh_state):
    top = 300
    errors = []

    def grow():
        try:
            for r in (*range(0, top, 7), top):
                sequences.completions(r, r // 3)
                sequences.completions(r, 0)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=grow) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    columns = sequences._columns
    assert len(columns) > top // 3 and len(columns[top // 3]) > top
    for h, column in enumerate(columns):
        assert column == [oracle.completions(r, h) for r in range(len(column))]


def test_a_diagonal_read_grows_nothing(fresh_state):
    assert sequences.completions(200, 200) == 1
    assert sequences.completions(200, 201) == 0
    assert sequences._columns == [[1, 1]]


def test_column_zero_holds_the_motzkin_numbers(fresh_state):
    assert sequences.motzkin_number(300) == oracle.completions(300, 0)
    assert sequences._columns[0] == [oracle.completions(n, 0) for n in range(301)]


def test_flat_words_grow_only_the_lowest_columns(fresh_state):
    w = Word("()" * 2000)
    assert weights.unrank(weights.rank(w)) == w
    assert len(sequences._columns) <= 4


class _SliceOnlyColumn(list):
    """A stored column that refuses iteration, so growth may only slice it."""

    def __iter__(self):
        raise AssertionError("a growth call iterated over the stored rows")


def test_growth_reads_only_the_new_rows_of_stored_columns(monkeypatch):
    top, height = 120, 6
    monkeypatch.setattr(sequences, "_columns", [
        _SliceOnlyColumn(oracle.completions(r, h) for r in range(top - h + 1))
        for h in range(height + 1)])
    for r, h in [(top + 3, 0), (top - 1, 2), (top - 3, height), (top - 2, height + 3)]:
        assert sequences.completions(r, h) == oracle.completions(r, h)
    columns = sequences._columns
    assert len(columns) == height + 4
    for h, column in enumerate(columns):
        if h <= height:
            assert type(column) is _SliceOnlyColumn and len(column) > top - h + 1
        assert column[:] == [oracle.completions(r, h) for r in range(len(column))]


def test_growing_one_row_at_a_time_matches_the_oracle(fresh_state):
    rng = random.Random(300)
    for r in range(2, 301):
        for h in (0, 1, r % 7, r // 4, rng.randrange(r)):
            sequences.completions(r, h)
    columns = sequences._columns
    assert len(columns) > 250 and len(columns[0]) > 300
    for h, column in enumerate(columns):
        assert column == [oracle.completions(r, h) for r in range(len(column))]


def test_the_ballot_sum_matches_the_oracle_below_row_60():
    for r in range(60):
        for h in range(r + 3):
            assert ballot_completions(r, h) == oracle.completions(r, h), (r, h)


def test_the_ballot_sum_matches_the_oracle_on_long_rows(monkeypatch):
    # the oracle's padded row rule at both ends of long rows; its triangle goes after
    monkeypatch.setattr(oracle, "_completion_rows", [[1]])
    for h in range(302):
        assert ballot_completions(300, h) == oracle.completions(300, h), (300, h)
    for h in (0, 1, 2, 17, 333, 500, 998, 999, 1000, 1001):
        assert ballot_completions(1000, h) == oracle.completions(1000, h), (1000, h)


def test_the_table_matches_the_ballot_sum_past_1000_rows(fresh_state):
    # past the oracle's reach: the referee holds no table and reads no `sequences`
    for r, heights in ((1000, (0, 5, 40)), (3000, (0, 3)), (10**4, (0, 1))):
        for h in heights:
            assert sequences.completions(r, h) == ballot_completions(r, h), (r, h)


def test_memo_survives_out_of_order_access():
    high = sequences.motzkin_number(60)
    assert sequences.motzkin_number(60) == high
    assert [sequences.motzkin_number(n) for n in range(15)] == MOTZKIN


@given(st.integers(min_value=1, max_value=150))
def test_values_stay_nonnegative(k):
    assert sequences.delta(k) >= 0
    assert sequences.unique_count(k) > 0
    if k >= 2:
        assert sequences.delta_prime(k) >= 0
