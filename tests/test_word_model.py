import copy
import inspect
import pickle
import random
from itertools import accumulate, product

import pytest
from hypothesis import given, settings, strategies as st

from motzkin import checks, oracle, weights, word_model
from motzkin.pair_arith import padd, psub
from motzkin.word_model import (
    Word,
    compare_lex,
    is_umw,
    matched_pairs,
    parse,
    prime_segments,
    strip_leading_zeros,
)
from motzkin.errors import (
    EmptyInputError,
    IllegalCharacterError,
    UnbalancedError,
)

from child_python import run_python
from long_words import canonical_text, canonical_texts, closable_word


@st.composite
def word_texts(draw, max_len=40):
    """Random valid words: leading zeros, then a canonical word."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    zeros = draw(st.integers(min_value=0, max_value=n - 1))
    if zeros == n - 1:  # the canonical word "0"
        return "0" * n
    return "0" * zeros + closable_word(n - zeros, lambda count: draw(st.integers(0, count - 1)))


def _reference_verdict(text):
    """A per-character check written out here: None for a valid text, else
    the exception type, position, character and message `parse` must raise."""
    if not text:
        return EmptyInputError, None, None, "empty input"
    height = 0
    for pos, char in enumerate(text, start=1):
        if char not in "0()":
            return IllegalCharacterError, pos, char, f"illegal character {char!r} at position {pos}"
        height += {"0": 0, "(": 1, ")": -1}[char]
        if height < 0:
            return UnbalancedError, pos, None, f"unbalanced word: unmatched ')' at position {pos}"
    if height:
        return UnbalancedError, None, None, "unbalanced word: unclosed '('"
    return None


@pytest.mark.parametrize("n", range(8))
def test_fast_check_accepts_and_rejects_like_a_per_character_check(n):
    accepted = 0
    for chars in product("0()x", repeat=n):
        text = "".join(chars)
        expected = _reference_verdict(text)
        try:
            parse(text)
            outcome = None
        except (EmptyInputError, IllegalCharacterError, UnbalancedError) as exc:
            outcome = (type(exc), getattr(exc, "position", None), getattr(exc, "char", None),
                       str(exc))
        assert outcome == expected, text
        accepted += expected is None
    assert accepted == (oracle.completions(n, 0) if n else 0)


@given(word_texts())
def test_parse_roundtrip_random(text):
    assert str(parse(text)) == text


@pytest.mark.parametrize("text, expected", [
    ("0", True),
    ("()0", True),
    ("0()", False),
    ("00", False),
])
def test_is_umw(text, expected):
    assert is_umw(parse(text)) is expected


def _pairs_by_scanning(text):
    """Each '(' with the first later ')' that brings the height back to the
    height before the '(', which is also the pair's depth.  Scans right to
    left, keeping the nearest such ')' for every height."""
    heights = list(accumulate(map({"0": 0, "(": 1, ")": -1}.get, text), initial=0))
    pairs, nearest_return = [], {}
    for pos in range(len(text), 0, -1):
        if text[pos - 1] == ")":
            nearest_return[heights[pos]] = pos
        elif text[pos - 1] == "(":
            pairs.append((pos, nearest_return[heights[pos - 1]], heights[pos - 1]))
    return pairs[::-1]


def _check_matched_pairs(text):
    pairs = matched_pairs(parse(text))
    assert type(pairs) is list and all(type(p) is tuple for p in pairs)
    return pairs


def test_matched_pairs_match_a_scan_of_every_short_word(words_through):
    for w in words_through(12):
        for text in (w.text, "0" + w.text, "000" + w.text):
            assert _check_matched_pairs(text) == _pairs_by_scanning(text)


@settings(deadline=None, max_examples=30)
@given(canonical_texts(), st.integers(min_value=0, max_value=3))
def test_matched_pairs_of_long_words_match_a_scan(text, zeros):
    padded = "0" * zeros + text
    assert _check_matched_pairs(padded) == _pairs_by_scanning(padded)


def test_prime_segments_worked_examples():
    segments = prime_segments(parse("()0(0())0"))
    assert [(str(s.word), s.start_pos) for s in segments] == [("()0", 1), ("(0())0", 4)]
    assert [(str(s.word), s.start_pos) for s in prime_segments(parse("()"))] == [("()", 1)]
    assert prime_segments(parse("0")) == []
    assert prime_segments(parse("000")) == []


@given(word_texts())
def test_prime_segments_reassemble_the_word(text):
    w = parse(text)
    segments = prime_segments(w)
    if not segments:
        assert set(text) == {"0"}
        return
    lead = segments[0].start_pos - 1
    assert "0" * lead + "".join(str(s.word) for s in segments) == text
    assert all(str(s.word)[0] == "(" for s in segments)
    for s, t in zip(segments, segments[1:]):
        assert s.start_pos + len(s.word) == t.start_pos


def test_compare_lex_matches_enumeration_order(words_through):
    ordered = words_through(10)
    for prev, cur in zip(ordered, ordered[1:]):
        assert compare_lex(prev, cur) == -1
        assert compare_lex(cur, prev) == 1
        assert compare_lex(prev, Word(prev.text)) == 0


@pytest.mark.parametrize("text, expected", [
    ("000(0())0", "(0())0"),
    ("0", "0"),
    ("000", "0"),
    ("()0", "()0"),
])
def test_strip_leading_zeros(text, expected):
    assert strip_leading_zeros(parse(text)) == Word(expected)


@given(word_texts())
def test_strip_leading_zeros_is_idempotent(text):
    once = strip_leading_zeros(parse(text))
    assert strip_leading_zeros(once) == once
    assert word_model.is_umw(once)


def test_word_keeps_its_value_contract():
    w = Word("(0)")
    assert repr(w) == "Word(text='(0)')"
    assert w == Word("(0)") and w != Word("()0")
    assert hash(w) == hash(Word("(0)"))
    assert len({w, Word("(0)"), Word("0")}) == 2
    assert Word("0") != "0" and Word("0") != ("0",)
    assert Word("0").__eq__("0") is NotImplemented
    with pytest.raises(AttributeError):
        w.text = "0"
    with pytest.raises(AttributeError):
        del w.text
    with pytest.raises(AttributeError):
        w.extra = 1
    for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
        assert type(twin) is Word and twin == w and twin.text == "(0)"


def test_unrank_and_block_arithmetic_build_words_without_the_check(monkeypatch):
    # their outputs balance by construction; every other Word is checked
    x, y = Word("(0)00"), Word("()")
    z = padd(x, y)

    def refuse(self):
        raise AssertionError(f"{self.text!r} was checked again")

    monkeypatch.setattr(Word, "__post_init__", refuse)
    built = [weights.unrank(10**40), padd(x, y), psub(z, y), psub(z, x)]
    with pytest.raises(AssertionError):
        Word("()")
    monkeypatch.undo()
    for out in built:
        assert type(out) is Word and Word(out.text) == out
        with pytest.raises(AttributeError):
            out.text = "0"
        with pytest.raises(AttributeError):
            del out.text
        with pytest.raises(AttributeError):
            out.extra = 1
    assert built[1:] == [z, x, y]
    # neither constructor gives a Word an instance __dict__
    assert not any(hasattr(w, "__dict__") for w in [*built, x, y, parse("(0())0")])


def test_the_unchecked_constructor_is_no_public_function():
    # bench/spans.py counts calls to the public functions of word_model
    public = {name for name, obj in vars(word_model).items()
              if inspect.isfunction(obj) and obj.__module__ == word_model.__name__
              and not name.startswith("_")}
    assert public == {"parse", "is_umw", "matched_pairs", "prime_segments", "compare_lex",
                      "strip_leading_zeros"}


def test_unpickling_checks_the_text_again():
    forged = pickle.dumps(Word("(0)")).replace(b"(0)", b"(0(")
    with pytest.raises(UnbalancedError):
        pickle.loads(forged)


# the text `parse` read last, remembered with its `Word` and pairs


def test_none_and_the_empty_text_raise_before_and_after_any_parse():
    # before any parse there is no remembered text, and no argument may read as one
    script = ("from motzkin import parse\n"
              "from motzkin.errors import EmptyInputError\n"
              "for text in (None, '', '(0)', None, ''):\n"
              "    try:\n"
              "        w = parse(text)\n"
              "    except EmptyInputError:\n"
              "        print('empty')\n"
              "    else:\n"
              "        print(w.text)\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["empty", "empty", "(0)", "empty", "empty"]


X, Y, T = "(0)0000", "(())", "((00)0(0()))"
T_PAIRS = [(1, 12, 0), (2, 5, 1), (7, 11, 1), (9, 10, 2)]


@pytest.mark.parametrize("calls, answers, checked, scanned, remembered", [
    # a repeated text returns the Word it first gave, unchecked and not yet matched
    (lambda: parse(T) is parse(T), True, [T], [], (T, None)),
    # a Word built again is checked again, but its text decides: the pairs are copied
    (lambda: (weights.rank(parse(T)), matched_pairs(parse(T)), matched_pairs(Word(T))),
     (9763, T_PAIRS, T_PAIRS), [T, T], [T], (T, tuple(T_PAIRS))),
    # the order of the benchmark's word items
    (lambda: (weights.rank(parse(T)), weights.unrank(9763).text,
              weights.decompose(parse(T)).total), (9763, T, 9763), [T], [T], (T, tuple(T_PAIRS))),
    # the order of the benchmark's pair items: only the right operand is matched
    (lambda: ((z := padd(parse(X), parse(Y))).text, psub(z, parse(Y)).text),
     ("(0)(())", X), [X, Y], [Y], (Y, ((1, 4, 0), (2, 3, 1)))),
    # only the last text is remembered
    (lambda: [matched_pairs(parse(t)) for t in ("(0)", "(00)", "(0)")],
     [[(1, 3, 0)], [(1, 4, 0)], [(1, 3, 0)]], ["(0)", "(00)", "(0)"], ["(0)", "(00)", "(0)"],
     ("(0)", ((1, 3, 0),))),
], ids=["repeated-text", "word-built-again", "word-items", "pair-items", "last-text-only"])
def test_parse_checks_and_matches_each_text_once_and_remembers_the_last(
        calls, answers, checked, scanned, remembered, fresh_state, monkeypatch, record):
    checks, scans = record(Word, "__post_init__", lambda self: self.text), []

    def scan(text, start):  # of a valid word's calls, only `matched_pairs` enumerates symbols
        scans.append(text)
        return enumerate(text, start)

    monkeypatch.setattr(word_model, "enumerate", scan, raising=False)
    assert calls() == answers
    assert (checks, scans) == (checked, scanned)
    assert word_model._last == (remembered[0], Word(remembered[0]), remembered[1])


def test_mutating_the_pairs_returned_changes_no_later_answer(fresh_state):
    w = parse("(0())0")
    for _ in range(3):
        pairs = matched_pairs(w)
        assert pairs == [(1, 5, 0), (3, 4, 1)]
        pairs[0] = None
        pairs.append((9, 9, 9))
    assert matched_pairs(w) == [(1, 5, 0), (3, 4, 1)]
    assert weights.decompose(w).total == 28


@pytest.mark.parametrize("text, error", [
    ("", EmptyInputError), ("(()", UnbalancedError), ("(x)", IllegalCharacterError)])
def test_a_failing_text_raises_on_every_parse_and_is_never_stored(fresh_state, text, error):
    empty = word_model._last
    for _ in range(3):
        with pytest.raises(error):
            parse(text)
    assert word_model._last is empty


@pytest.mark.parametrize("bound", [65_536, 12])
def test_a_text_past_the_length_bound_is_checked_and_matched_on_every_call(
        fresh_state, monkeypatch, record, bound):
    # The real bound, and a small one to check ranks past it too.  Only small
    # values are compared: a failing comparison of the remembered tuple itself
    # would have pytest pretty-print tens of thousands of pairs.
    assert word_model._STORE_MAX_LENGTH == 65_536
    monkeypatch.setattr(word_model, "_STORE_MAX_LENGTH", bound)
    checked = record(Word, "__post_init__", lambda self: len(self.text))
    rng = random.Random(bound)
    at, past = (canonical_text(rng.randbytes(n)) for n in (bound, bound + 1))
    stored, pairs = parse(at), tuple(_pairs_by_scanning(at))
    assert tuple(matched_pairs(stored)) == pairs
    entry = word_model._last
    assert entry[0] is at and entry[1] is stored and entry[2] == pairs
    for _ in range(2):
        w = parse(past)
        assert matched_pairs(w) == _pairs_by_scanning(past)
        if bound < 1000:  # a rank at 65 537 symbols would grow column 0 to about 400 MB
            assert weights.rank(w) == oracle.rank_by_counting(w)
        assert word_model._last is entry
        assert entry[1] is stored and entry[2] == pairs
    assert checked == [bound, bound + 1, bound + 1]


def test_words_built_without_parse_are_never_stored(fresh_state):
    weighed = parse("(0)")
    assert weights.rank(weighed) == 2
    parse("(" * 30 + ")" * 30)
    before = word_model._last
    assert all(result.passed for result in checks.run_checks(10))
    x = Word("(0)00")
    z = padd(x, Word("()"))
    built = [x, z, psub(z, x), weights.unrank(10**40), weights.compose(6, [(1, 5), (3, 4)]),
             *(segment.word for segment in prime_segments(z))]
    for w in built:
        weights.decompose(strip_leading_zeros(w))
    assert word_model._last is before


def test_threads_parsing_and_weighing_shared_and_distinct_texts_agree_with_the_oracle(
        fresh_state, race):
    rng = random.Random(17)
    shared = [canonical_text(rng.randbytes(n)) for n in (40, 90, 150)]
    jobs = [shared + [canonical_text(rng.randbytes(rng.randrange(20, 160))) for _ in range(6)]
            for _ in range(8)]
    texts = {text for job in jobs for text in job}
    expected = {text: (oracle.rank_by_counting(Word(text)), matched_pairs(Word(text)))
                for text in texts}
    results, seen = [], []

    def work(job):
        for _ in range(3):
            for text in job:
                w = parse(text)
                seen.append(word_model._last)
                results.append((text, w.text, weights.rank(w), weights.decompose(w).total,
                                matched_pairs(w)))
                seen.append(word_model._last)

    race(work, jobs)
    assert len(results) == 8 * 3 * 9
    for text, parsed, ranked, total, pairs in results:
        assert parsed == text
        assert (ranked, pairs) == expected[text]
        assert total == ranked
    # every remembered tuple a thread saw is whole: its Word and its pairs, if any, are its text's
    assert len(seen) == 2 * len(results)
    for text, w, pairs in seen:
        assert type(w) is Word and w.text == text
        assert pairs is None or list(pairs) == expected[text][1]
