import random
import sys
import threading
from itertools import accumulate, product

import pytest
from hypothesis import given, settings, strategies as st

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
    Decomposition,
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

from long_words import canonical_text, canonical_texts
from reference_table import ROWS


@pytest.mark.parametrize("n, k, expected", [(12, 1, 5798), (6, 2, 22), (9, 8, 708)])
def test_pair_weight_spot_values(n, k, expected):
    assert pair_weight(n, k) == expected


@pytest.mark.parametrize("n, k, s, expected", [
    (11, 8, 1, 3932),
    (4, 3, 2, 3),
    (6, 2, 1, 30),
    (5, 3, 2, 9),
])
def test_pair_nest_weight_spot_values(n, k, s, expected):
    assert pair_nest_weight(n, k, s) == expected


@pytest.mark.parametrize("n, k, s", [(5, 5, 0), (3, 0, 0), (5, 1, 1), (6, 2, 2), (4, 3, -1)])
def test_pair_nest_weight_domain_errors(n, k, s):
    with pytest.raises(DomainViolationError):
        pair_nest_weight(n, k, s)


def test_reference_table_reproduced_cell_for_cell():
    for no, n, k, word, m_k, cells in ROWS:
        assert pair_catalog_index(n, k) == no
        assert str(prime_pair_word(n, k)) == word
        assert sequences.motzkin_number(k) == m_k
        for s, expected in enumerate(cells):
            if expected is None:
                assert k <= s
                with pytest.raises(DomainViolationError):
                    pair_nest_weight(n, k, s)
            else:
                assert pair_nest_weight(n, k, s) == expected


@pytest.mark.parametrize("n, k, expected", [(2, 1, 1), (6, 1, 11), (3, 2, 3)])
def test_pair_catalog_index_spot_values(n, k, expected):
    assert pair_catalog_index(n, k) == expected


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


def test_rank_rejects_leading_zeros():
    with pytest.raises(NotCanonicalError):
        rank(parse("0()"))


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


@settings(deadline=None, max_examples=25)
@given(canonical_texts())
def test_unrank_of_long_words_is_a_valid_word(text):
    out = unrank(rank(Word(text)))
    assert type(out) is Word and out.text == text and Word(out.text) == out


def test_unrank_calls_completions_above_height_0_only_at_its_one_hand_over(
        monkeypatch, force_cap, record):
    # the walk reads `_columns` directly and calls `_grow` on a miss below the
    # cap; the length search reads column 0 through `completions`, and a
    # hand-over to the table-free walk reads its start through `_walk_state`,
    # from entries already stored
    calls, handovers = record(sequences, "completions"), []
    true_walk_state = sequences._walk_state

    def lengths():
        return [len(column) for column in sequences._columns]

    def walk_state(r, h):
        start, before = len(calls), lengths()
        state = true_walk_state(r, h)
        handovers.append((r, h, calls[start:], before, lengths()))
        return state

    monkeypatch.setattr(sequences, "_walk_state", walk_state)
    rng = random.Random(13)
    deep = "(" * 300 + ")" * 300  # depth 300 reaches _cap(600) = 152
    shipped = ["0", "()", deep, "()" * 300,
               *(_random_canonical_text(rng, n) for n in (50, 400, 900))]
    forced = [_random_canonical_text(rng, 200) for _ in range(4)]
    walked = []
    for cap, texts in ((None, shipped), (1, forced), (4, forced)):
        if cap is not None:
            force_cap(cap)
        for text in texts:
            monkeypatch.setattr(sequences, "_columns", [[1, 1]])
            calls.clear()
            handovers.clear()
            assert unrank(oracle.rank_by_counting(Word(text))).text == text
            above = [call for call in calls if call[1] > 0]
            heights = list(accumulate((c == "(") - (c == ")") for c in text))
            walk_from = weights._cap(len(text))
            if max(heights) + 1 < walk_from:
                assert handovers == [] and above == [], text
                continue
            walked.append((cap, text))
            [(r, h, reads, before, after)] = handovers
            assert reads == [(r, h), (r + 1, h), (r, h - 1)][:3 if h else 2]
            assert above == reads[:3 if h else 0]
            assert before == after  # the hand-over grows no column
            assert h == walk_from - 1
    # at cap 4 each forced word hands over mid-word, at height 3
    assert walked == [(None, deep), *((1, text) for text in forced),
                      *((4, text) for text in forced)]


def test_unrank_from_an_empty_table_inverts_the_counted_rank(monkeypatch, words_through):
    for w in words_through(12):
        monkeypatch.setattr(sequences, "_columns", [[1, 1]])
        assert unrank(oracle.rank_by_counting(w)) == w


@settings(deadline=None, max_examples=25)
@given(canonical_texts())
def test_unrank_of_long_words_from_an_empty_table_stores_only_true_counts(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_columns", [[1, 1]])
        assert unrank(oracle.rank_by_counting(Word(text))).text == text
        for h, column in enumerate(sequences._columns):
            assert column == [oracle.completions(r, h) for r in range(len(column))]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**18))
def test_unrank_rank_and_counting_agree_at_scale(i):
    w = unrank(i)
    assert rank(w) == i
    assert oracle.rank_by_counting(w) == i


def test_decompose_worked_examples():
    d = decompose(parse("((00)0(0()))"))
    assert [(e.n, e.k, e.depth, e.contribution) for e in d.entries] == [
        (12, 1, 0, 5798), (11, 8, 1, 3932), (6, 2, 1, 30), (4, 3, 2, 3)]
    assert d.total == 9763
    assert d.word_length == 12

    d = decompose(parse("(0())0"))
    assert [(e.n, e.k, e.depth, e.contribution) for e in d.entries] == [
        (6, 2, 0, 22), (4, 3, 1, 6)]
    assert d.total == 28

    assert decompose(parse("()")) == Decomposition(
        2, (DecompositionEntry(2, 1, 0, 1),), 1)
    assert decompose(parse("0")) == Decomposition(1, (), 0)


def test_decompose_weighs_each_pair_once_in_opening_order(record, words_through):
    calls = record(weights, "pair_nest_weight")
    for text in _weighing_texts(words_through):
        w = parse(text)
        calls.clear()
        entries = decompose(w).entries
        end = len(text) + 1
        assert calls == [(end - a, end - b, s) for a, b, s in matched_pairs(w)]
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
    return texts + [_random_canonical_text(rng, n) for n in (300, 1000)]


def test_decompose_rejects_leading_zeros():
    with pytest.raises(NotCanonicalError):
        decompose(parse("00()"))


def test_compose_worked_examples():
    assert compose(12, [(1, 12), (2, 5), (7, 11), (9, 10)]) == Word("((00)0(0()))")
    assert compose(6, [(1, 5), (3, 4)]) == Word("(0())0")
    assert compose(1, []) == Word("0")


def test_compose_error_cases():
    with pytest.raises(OverlapError):
        compose(12, [(1, 6), (4, 8)])
    with pytest.raises(PositionConflictError):
        compose(6, [(1, 4), (4, 6)])
    with pytest.raises(NotCanonicalError):
        compose(6, [(2, 3)])
    with pytest.raises(DomainViolationError):
        compose(4, [(1, 7)])
    with pytest.raises(DomainViolationError):
        compose(4, [(3, 2)])
    with pytest.raises(DomainViolationError):
        compose(0, [])
    for length in (MAX_COMPOSE_LENGTH + 1, 10**11):  # refused before the word is allocated
        with pytest.raises(RangeTooLargeError, match=f"maximum of {MAX_COMPOSE_LENGTH}"):
            compose(length, [(1, 2)])


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


def test_compose_and_decompose_are_mutually_inverse(words_through):
    for w in words_through(12):
        d = decompose(w)
        length = d.word_length
        spans = [(length - e.n + 1, length - e.k + 1) for e in d.entries]
        assert compose(length, spans) == w
        assert decompose(compose(length, spans)) == d


@settings(deadline=None, max_examples=25)
@given(canonical_texts())
def test_rank_of_long_words_is_the_decomposition_total_and_the_counted_rank(text):
    w = Word(text)
    assert rank(w) == decompose(w).total == oracle.rank_by_counting(w)


def test_first_column_weights_and_first_derivatives():
    for n in range(2, 21):
        assert pair_weight(n, 1) == sequences.motzkin_number(n - 1)
    for n in range(3, 21):
        assert pair_nest_weight(n, 2, 1) == sequences.unique_count(n)
    # the paper's depth-0 and depth-1 closed forms, as identities of the one form
    for n in range(2, 40):
        for k in range(1, n):
            assert pair_nest_weight(n, k, 0) == (
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


def test_deep_word_ranks_like_the_oracle_and_round_trips():
    w = Word("(" * 400 + ")" * 400)
    r = rank(w)
    assert r == oracle.rank_by_counting(w)
    assert unrank(r) == w


def test_long_flat_word_ranks_to_the_range_maximum_and_round_trips():
    w = Word("()" * 5000)
    r = rank(w)
    assert r == range_extrema(10000).max_weight
    assert unrank(r) == w


@st.composite
def canonical_words(draw):
    """A canonical word of length 100-400."""
    n = draw(st.integers(min_value=100, max_value=400))
    return Word(canonical_text(draw(st.lists(st.integers(min_value=0, max_value=2),
                                             min_size=n, max_size=n))))


@settings(deadline=None, max_examples=25)
@given(canonical_words())
def test_rank_and_unrank_of_long_words_agree_with_oracle(w):
    r = rank(w)
    assert r == oracle.rank_by_counting(w)
    assert unrank(r) == w


def _random_canonical_text(rng, n):
    # a pick below 6 chooses evenly among 1, 2 or 3 options
    return canonical_text([rng.randrange(6) for _ in range(n)])


def test_direct_reads_from_an_empty_table_agree_across_threads(fresh_state):
    rng = random.Random(2024)
    jobs = []
    for _ in range(8):
        n = rng.randint(200, 400)
        depth = rng.randint(n // 4, (n - 2) // 2)
        deep = "(" * depth + _random_canonical_text(rng, n - 2 * depth) + ")" * depth
        texts = [deep, _random_canonical_text(rng, n), _random_canonical_text(rng, 600 - n)]
        jobs.append([(Word(t), oracle.rank_by_counting(Word(t))) for t in texts])
    results, errors = [], []

    def work(job):
        try:
            for w, _ in job:
                ranked = rank(w)
                total = decompose(w).total
                results.append((w, total, ranked, unrank(total)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
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
    expected = {w: r for job in jobs for w, r in job}
    assert len(results) == len(expected) == 24
    for w, total, ranked, back in results:
        assert total == ranked == expected[w]
        assert back == w
