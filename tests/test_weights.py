import math
import random
import re
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from motzkin import oracle, sequences, weights
from motzkin.errors import (
    DomainViolationError,
    MotzkinError,
    NotCanonicalError,
    OverlapError,
    PositionConflictError,
    RangeTooLargeError,
)
from motzkin.weights import (
    MAX_COMPOSE_LENGTH,
    DecompositionEntry,
    compose,
    decompose,
    pair_catalog_index,
    pair_nest_weight,
    pair_weight,
    prime_pair_word,
    range_extrema,
    rank,
    unrank,
)
from motzkin.word_model import Word, matched_pairs, parse

from long_words import canonical_texts, closable_word


@pytest.mark.parametrize("n, k, s", [(5, 5, 0), (3, 0, 0), (5, 1, 1), (6, 2, 2), (4, 3, -1)])
def test_pair_nest_weight_domain_errors(n, k, s):
    with pytest.raises(DomainViolationError):
        pair_nest_weight(n, k, s)


def test_pair_catalog_index_matches_enumeration_order():
    catalog = [(n, k) for n in range(2, 12) for k in range(1, n)]
    for position, (n, k) in enumerate(catalog, start=1):
        assert pair_catalog_index(n, k) == position


def test_prime_pair_words_are_single_pair_words():
    for n in range(2, 12):
        for k in range(1, n):
            w = prime_pair_word(n, k)
            assert len(w) == n
            sites = matched_pairs(w)
            assert len(sites) == 1
            (_, close, _), = sites
            assert len(w) - close + 1 == k


@pytest.mark.parametrize("n, k", [(3, 3), (4, 0), (2, -1), (1, 0), (2, 5)])
def test_pair_catalog_index_and_prime_pair_word_domain_errors(n, k):
    with pytest.raises(DomainViolationError):
        pair_catalog_index(n, k)
    with pytest.raises(DomainViolationError):
        prime_pair_word(n, k)


def test_unrank_finds_the_first_and_last_index_of_every_length():
    # M_{n-1} and M_n - 1 are where the length search must stop at n
    for n in range(2, 401):
        extrema = range_extrema(n)
        assert unrank(oracle.completions(n - 1, 0)) == extrema.min_word, n
        assert unrank(oracle.completions(n, 0) - 1) == extrema.max_word, n


def test_range_extrema_spot_values():
    assert range_extrema(1) == (Word("0"), 0, Word("0"), 0)
    assert range_extrema(2) == (Word("()"), 1, Word("()"), 1)
    assert range_extrema(6) == (Word("(0000)"), 21, Word("()()()"), 50)
    assert range_extrema(9).max_weight == 834
    with pytest.raises(DomainViolationError):
        range_extrema(0)


def test_range_extrema_agree_with_rank():
    for n in range(2, 15):
        extrema = range_extrema(n)
        assert rank(extrema.min_word) == extrema.min_weight == sequences.motzkin_number(n - 1)
        assert rank(extrema.max_word) == extrema.max_weight == sequences.motzkin_number(n) - 1


@pytest.mark.parametrize("text, expected", [
    ("(0())0", 28),
    ("()0(0())0", 736),
    ("((00)0(0()))", 9763),
])
def test_rank_worked_examples(text, expected):
    assert rank(parse(text)) == expected


# the paper's listing of the first 13 words, then the largest rank of length 9
@pytest.mark.parametrize("i, text", [
    *enumerate(["0", "()", "(0)", "()0", "(00)", "(0)0", "(())", "()00", "()()",
                "(000)", "(00)0", "(0())", "(0)00"]),
    (834, "()()()()0"),
])
def test_unrank_worked_examples(i, text):
    assert unrank(i) == Word(text)
    assert rank(parse(text)) == i


def test_unrank_rejects_negative_index():
    with pytest.raises(DomainViolationError, match=r"nonnegative index, got -1$"):
        unrank(-1)
    # past 80 characters the message names the bound, not the index
    with pytest.raises(DomainViolationError, match=r"got an integer of more than 80 characters$"):
        unrank(-10**5000)


def test_unrank_reports_an_inconsistent_table(fresh_state):
    # one stored count off by one makes some walks end off the word; the
    # check after the walk turns that into a MotzkinError naming the index,
    # and no index may raise anything else
    unrank(299)
    sequences._columns[1][2] += 1
    with pytest.raises(MotzkinError, match=r"unrank\(6\)"):
        unrank(6)
    for i in range(1, 300):
        try:
            unrank(i)
        except MotzkinError:
            pass


def test_unrank_from_an_empty_table_inverts_the_counted_rank(fresh_state, words_through):
    for w in words_through(12):
        fresh_state()
        assert unrank(oracle.rank_by_counting(w)) == w


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(canonical_texts())
def test_unrank_of_long_words_from_an_empty_table_stores_only_true_counts(fresh_state, text):
    fresh_state()  # fixtures run once per test, not per example
    assert unrank(oracle.rank_by_counting(Word(text))).text == text
    for h, column in enumerate(sequences._columns):
        assert column == [oracle.completions(r, h) for r in range(len(column))]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**18))
def test_unrank_rank_and_counting_agree_at_scale(i):
    w = unrank(i)
    assert rank(w) == i
    assert oracle.rank_by_counting(w) == i


def test_decompose_weighs_each_pair_once_in_opening_order(force_cap, record, words_through):
    force_cap(math.inf)  # the table path, which weighs by `pair_nest_weight`
    calls = record(weights, "pair_nest_weight")
    for text in _weighing_texts(words_through):
        w = parse(text)
        calls.clear()
        entries = decompose(w).entries
        end = len(text) + 1
        assert calls == [(end - a, end - b, s) for a, b, s in matched_pairs(w)]
        assert type(entries) is tuple
        assert [type(e) for e in entries] == [DecompositionEntry] * len(calls)
        assert [(e.n, e.k, e.depth, e.contribution) for e in entries] == [
            (*c, pair_nest_weight(*c)) for c in calls]
        # rank weighs the same pairs, with the same arguments, in the same order
        decompose_calls = calls[:]
        calls.clear()
        rank(w)
        assert calls == decompose_calls


def test_rank_builds_no_decomposition_entry(monkeypatch, words_through):
    def refuse(fields):
        raise AssertionError(f"rank built a record {fields}")

    monkeypatch.setattr(weights, "_entry", refuse)
    for text in _weighing_texts(words_through):
        w = parse(text)
        assert rank(w) == oracle.rank_by_counting(w)


def _weighing_texts(words_through):
    """Every canonical word of length <= 9, then two seeded random long ones."""
    rng = random.Random(7)
    texts = [w.text for w in words_through(9)]
    return texts + [closable_word(n, rng.randrange) for n in (300, 1000)]


# a length the guards admit gets as far as its spans, here one of a lone position
@pytest.mark.parametrize("length, spans, error, message", [
    (12, [(1, 6), (4, 8)], OverlapError, "span (1, 6) crosses another span"),
    (6, [(1, 4), (4, 6)], PositionConflictError, "position 4 claimed twice"),
    (6, [(2, 3)], NotCanonicalError, "position 1 must open a pair for lengths >= 2"),
    (4, [(1, 7)], DomainViolationError, "span (1, 7) falls outside 1..4"),
    (4, [(4, 2)], DomainViolationError, "span (4, 2) must open before it closes"),
    (4, [(2, 1)], DomainViolationError, "span (2, 1) must open before it closes"),
    (0, [], DomainViolationError, "compose requires length >= 1, got 0"),
    (MAX_COMPOSE_LENGTH, [(1,)], ValueError, "not enough values to unpack"),
    # refused before the word is allocated
    (MAX_COMPOSE_LENGTH + 1, [(1, 2)], RangeTooLargeError, f"maximum of {MAX_COMPOSE_LENGTH}"),
    (10**11, [(1, 2)], RangeTooLargeError, f"maximum of {MAX_COMPOSE_LENGTH}"),
])
def test_compose_error_cases(length, spans, error, message):
    with pytest.raises(error, match=re.escape(message)):
        compose(length, spans)


def _reference_compose_error(length, spans):
    """The error type a sort-and-stack crossing check raises, or None."""
    used = set()
    for a, b in spans:
        if not (1 <= a <= length and 1 <= b <= length) or a >= b:
            return DomainViolationError
        if a in used or b in used:
            return PositionConflictError
        used.update((a, b))
    stack = []
    for a, b in sorted(spans):
        while stack and stack[-1][1] < a:
            stack.pop()
        if stack and b > stack[-1][1]:
            return OverlapError
        stack.append((a, b))
    if length >= 2 and 1 not in {a for a, _ in spans}:
        return NotCanonicalError
    return None


def test_compose_raises_what_a_crossing_sweep_raises():
    # every list of up to three spans over positions 0..length+1, lengths 1..5
    checked = 0
    for length in range(1, 6):
        ends = range(length + 2)
        spans = list(product(ends, ends))
        for count in range(4):
            for sites in product(spans, repeat=count):
                expected = _reference_compose_error(length, sites)
                try:
                    w = compose(length, sites)
                except MotzkinError as exc:
                    assert type(exc) is expected, (length, sites)
                else:
                    assert expected is None, (length, sites)
                    assert sorted((a, b) for a, b, _ in matched_pairs(w)) == sorted(sites)
                checked += 1
    assert checked > 100_000


@pytest.mark.parametrize("n", range(1, 13))
def test_compose_and_decompose_are_mutually_inverse(n):
    for w in oracle.enumerate_range(n):
        d = decompose(w)
        length = d.word_length
        spans = [(length - e.n + 1, length - e.k + 1) for e in d.entries]
        assert compose(length, spans) == w
        assert decompose(compose(length, spans)) == d


@settings(deadline=None, max_examples=25)
@given(canonical_texts())
@example("(" * 400 + ")" * 400)
def test_long_words_rank_to_the_decomposition_total_and_the_counted_rank_and_round_trip(text):
    w = Word(text)
    r = rank(w)
    assert r == decompose(w).total == oracle.rank_by_counting(w)
    out = unrank(r)
    assert type(out) is Word and out == w and Word(out.text) == out


def test_first_column_weights_and_first_derivatives():
    # the paper's depth-0 and depth-1 closed forms, as identities of the one form;
    # delta(1) = delta_prime(2) = 0 makes them M_{n-1} at k = 1 and U_n at k = 2
    for n in range(2, 40):
        for k in range(1, n):
            assert pair_weight(n, k) == pair_nest_weight(n, k, 0) == (
                sequences.motzkin_number(n - 1) + sequences.delta(k))
            if k >= 2:
                assert pair_nest_weight(n, k, 1) == (
                    sequences.unique_count(n) + sequences.delta_prime(k))


def test_deepest_order_of_the_last_pair_counts_its_size():
    for n in range(3, 21):
        assert pair_nest_weight(n, n - 1, n - 2) == n - 1


def test_three_in_one_recurrence_holds_everywhere():
    for n in range(2, 13):
        for k in range(1, n):
            if k >= 2:
                assert (pair_nest_weight(n, k, 1) + pair_nest_weight(n, k, 0)
                        + sequences.motzkin_number(k)) == pair_nest_weight(n + 1, k + 1, 0)
            for s in range(1, k - 1):
                assert (pair_nest_weight(n, k, s + 1) + pair_nest_weight(n, k, s)
                        + pair_nest_weight(n, k, s - 1)) == pair_nest_weight(n + 1, k + 1, s)


def test_pair_weight_monotone_in_both_parameters():
    for n in range(2, 13):
        for k in range(1, n - 1):
            assert pair_weight(n, k) < pair_weight(n, k + 1)
    for k in range(1, 12):
        for n in range(k + 1, 13):
            assert pair_weight(n, k) < pair_weight(n + 1, k)


def test_deep_nest_weight_satisfies_the_recurrence():
    assert pair_nest_weight(1200, 1100, 1050) == (
        pair_nest_weight(1201, 1101, 1049) - pair_nest_weight(1200, 1100, 1049)
        - pair_nest_weight(1200, 1100, 1048))


def test_direct_reads_from_an_empty_table_agree_across_threads(fresh_state, race):
    rng = random.Random(2024)
    jobs = []
    for _ in range(8):
        n = rng.randint(200, 400)
        depth = rng.randint(n // 4, (n - 2) // 2)
        deep = "(" * depth + closable_word(n - 2 * depth, rng.randrange) + ")" * depth
        texts = [deep, closable_word(n, rng.randrange), closable_word(600 - n, rng.randrange)]
        jobs.append([(Word(t), oracle.rank_by_counting(Word(t))) for t in texts])
    results = []

    def work(job):
        for w, _ in job:
            ranked = rank(w)
            total = decompose(w).total
            results.append((w, total, ranked, unrank(total)))

    race(work, jobs)
    expected = {w: r for job in jobs for w, r in job}
    assert len(results) == len(expected) == 24
    for w, total, ranked, back in results:
        assert total == ranked == expected[w]
        assert back == w
