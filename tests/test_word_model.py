import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, strategies as st

from motzkin import oracle, word_model
from motzkin.word_model import (
    PairSite,
    Word,
    compare_lex,
    is_umw,
    matched_pairs,
    parse,
    prime_segments,
    strip_leading_zeros,
)
from motzkin.errors import EmptyInputError, IllegalCharacterError, UnbalancedError


@st.composite
def word_texts(draw, max_len=40):
    """Random valid words, leading zeros allowed."""
    n = draw(st.integers(min_value=1, max_value=max_len))
    chars = []
    height = 0
    for pos in range(n):
        left = n - pos - 1
        options = []
        if height <= left:
            options.append("0")
        if height + 1 <= left:
            options.append("(")
        if height > 0:
            options.append(")")
        char = draw(st.sampled_from(options))
        chars.append(char)
        height += 1 if char == "(" else (-1 if char == ")" else 0)
    return "".join(chars)


@pytest.mark.parametrize("text", ["(0())0", "0", "()0(0())0", "000", "((00)0(0()))"])
def test_parse_roundtrip(text):
    assert str(parse(text)) == text
    assert len(parse(text)) == len(text)


def test_parse_empty():
    with pytest.raises(EmptyInputError):
        parse("")


def test_parse_illegal_character():
    with pytest.raises(IllegalCharacterError) as exc:
        parse("(0x)")
    assert exc.value.position == 3
    assert exc.value.char == "x"


def test_parse_unmatched_close():
    with pytest.raises(UnbalancedError) as exc:
        parse(")(")
    assert exc.value.position == 1


def test_parse_unclosed_open():
    with pytest.raises(UnbalancedError) as exc:
        parse("(()")
    assert exc.value.position is None


def _reference_verdict(text):
    """A per-character check written out here: None for a valid text, else
    the exception type, position and message `Word` must raise."""
    if not text:
        return EmptyInputError, None, "empty input"
    height = 0
    for pos, char in enumerate(text, start=1):
        if char not in "0()":
            return IllegalCharacterError, pos, f"illegal character {char!r} at position {pos}"
        height += {"0": 0, "(": 1, ")": -1}[char]
        if height < 0:
            return UnbalancedError, pos, f"unbalanced word: unmatched ')' at position {pos}"
    if height:
        return UnbalancedError, None, "unbalanced word: unclosed '('"
    return None


def test_fast_check_accepts_and_rejects_like_a_per_character_check():
    accepted = 0
    for n in range(8):
        for chars in product("0()x", repeat=n):
            text = "".join(chars)
            expected = _reference_verdict(text)
            try:
                Word(text)
                outcome = None
            except (EmptyInputError, IllegalCharacterError, UnbalancedError) as exc:
                outcome = type(exc), getattr(exc, "position", None), str(exc)
            assert outcome == expected, text
            accepted += expected is None
    assert accepted == sum(oracle.completions(n, 0) for n in range(1, 8))


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


def test_matched_pairs_worked_examples():
    assert matched_pairs(parse("(0())0")) == [PairSite(1, 5, 0), PairSite(3, 4, 1)]
    assert matched_pairs(parse("((00)0(0()))")) == [
        PairSite(1, 12, 0), PairSite(2, 5, 1), PairSite(7, 11, 1), PairSite(9, 10, 2)]
    assert matched_pairs(parse("0")) == []


@given(word_texts())
def test_matched_pairs_form_a_laminar_family(text):
    w = parse(text)
    sites = matched_pairs(w)
    assert len(sites) == text.count("(")
    assert [s.open_pos for s in sites] == sorted(s.open_pos for s in sites)
    for a in sites:
        assert a.open_pos < a.close_pos
        enclosing = 0
        for b in sites:
            if a is b:
                continue
            disjoint = b.close_pos < a.open_pos or a.close_pos < b.open_pos
            nested = (b.open_pos < a.open_pos and a.close_pos < b.close_pos) or (
                a.open_pos < b.open_pos and b.close_pos < a.close_pos)
            assert disjoint or nested
            if b.open_pos < a.open_pos and a.close_pos < b.close_pos:
                enclosing += 1
        assert a.depth == enclosing


def test_closing_room_bounds_depth(words_through):
    # a pair at depth d needs at least d more ')' after its own
    for w in words_through(12):
        length = len(w)
        for site in matched_pairs(w):
            assert length - site.close_pos + 1 >= site.depth + 1


def test_prime_segments_worked_examples():
    segments = prime_segments(parse("()0(0())0"))
    assert [(str(s.word), s.start_pos) for s in segments] == [("()0", 1), ("(0())0", 4)]
    assert [(str(s.word), s.start_pos) for s in prime_segments(parse("()"))] == [("()", 1)]
    assert prime_segments(parse("0")) == []
    assert prime_segments(parse("000")) == []


def test_prime_segments_are_canonical_words():
    for text in ("()0(0())0", "((0))0()00", "0(0)()"):
        for segment in prime_segments(parse(text)):
            assert str(segment.word)[0] == "("


@given(word_texts())
def test_prime_segments_reassemble_the_word(text):
    w = parse(text)
    segments = prime_segments(w)
    if not segments:
        assert set(text) == {"0"}
        return
    lead = segments[0].start_pos - 1
    assert "0" * lead + "".join(str(s.word) for s in segments) == text
    for s, t in zip(segments, segments[1:]):
        assert s.start_pos + len(s.word) == t.start_pos


@pytest.mark.parametrize("a, b, expected", [
    ("(0)0", "(())", -1),
    ("()", "(0)", -1),
    ("0", "0", 0),
    ("(())", "(0)0", 1),
    ("()0", "(0)", 1),
])
def test_compare_lex(a, b, expected):
    assert compare_lex(parse(a), parse(b)) == expected


def test_compare_lex_matches_enumeration_order(words_through):
    ordered = words_through(10)
    for prev, cur in zip(ordered, ordered[1:]):
        assert compare_lex(prev, cur) == -1
        assert compare_lex(cur, prev) == 1


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


def test_enumeration_words_are_canonical(words_through):
    for w in words_through(8):
        assert is_umw(w)
    assert len(words_through(8)) == oracle.completions(8, 0)


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


def test_unpickling_checks_the_text_again():
    forged = pickle.dumps(Word("(0)")).replace(b"(0)", b"(0(")
    with pytest.raises(UnbalancedError):
        pickle.loads(forged)
