import pytest
from hypothesis import given, settings, strategies as st

from motzkin import oracle, pair_arith
from motzkin.errors import (
    IntersectsError,
    MotzkinError,
    NestedOperandsError,
    NotSubwordError,
    NotTopLevelError,
)
from motzkin.pair_arith import padd, psub
from motzkin.weights import rank
from motzkin.word_model import Word, matched_pairs, parse

from arith_enumeration import defined_applications
from long_words import canonical_text, canonical_texts

ZERO_WORD = Word("0")


def test_padd_canonicalizes_padded_operands():
    assert padd(parse("00()00"), parse("0")) == Word("()00")


def test_identities_exhaustively(words_through):
    for x in words_through(10):
        assert padd(x, ZERO_WORD) == x
        assert padd(ZERO_WORD, x) == x
        assert psub(x, ZERO_WORD) == x
        assert psub(x, x) == ZERO_WORD


def test_defined_applications_roundtrip(words_through):
    seen = 0
    for z in words_through(10):
        rank_z = oracle.rank_by_counting(z)
        for x, y in defined_applications(z):
            for out, expected in ((padd(x, y), z), (padd(y, x), z), (psub(z, x), y),
                                  (psub(z, y), x)):
                assert out == expected and Word(out.text) == out
            assert oracle.rank_by_counting(x) + oracle.rank_by_counting(y) == rank_z
            seen += 1
    assert seen == 2289  # sum over words of 2^(top blocks - 1) - 1


def test_leading_zeros_on_operands_do_not_matter(words_through):
    # right-alignment makes explicit left padding a no-op
    for z in words_through(7):
        for x, y in defined_applications(z):
            padded = Word("00" + y.text)
            assert padd(x, padded) == z
            assert padd(padded, x) == z


def _top_spans_by_brute_force(text):
    spans, opened = [], []
    for pos, char in enumerate(text, start=1):
        if char == "(":
            opened.append(pos)
        elif char == ")":
            lo = opened.pop()
            if not opened:
                spans.append((lo, pos))
    return spans


def _expected(op, x, y):
    """op(x, y) by brute force, as (error type, position) or (Word, result):
    a per-position scan for a clash (padd) or a stray symbol (psub), then
    the top-level spans of both operands, then the symbol-wise merge."""
    n = max(len(x), len(y))
    a, b = x.text.rjust(n, "0"), y.text.rjust(n, "0")
    pairs = list(zip(a, b))
    if op is padd:
        clash = [pos for pos, (ca, cb) in enumerate(pairs, start=1) if ca != "0" != cb]
        if clash:
            return IntersectsError, clash[0]
        a_spans, b_spans = _top_spans_by_brute_force(a), _top_spans_by_brute_force(b)
        if any(not (pa[1] < pb[0] or pb[1] < pa[0]) for pa in a_spans for pb in b_spans):
            return NestedOperandsError, None
        merged = "".join(ca if cb == "0" else cb for ca, cb in pairs)
    else:
        stray = [pos for pos, (ca, cb) in enumerate(pairs, start=1) if cb not in ("0", ca)]
        if stray:
            return NotSubwordError, stray[0]
        x_spans = _top_spans_by_brute_force(a)
        if any((lo, hi) not in x_spans or a[lo - 1:hi] != b[lo - 1:hi]
               for lo, hi in _top_spans_by_brute_force(b)):
            return NotTopLevelError, None
        merged = "".join(ca if cb == "0" else "0" for ca, cb in pairs)
    return Word, Word(merged.lstrip("0") or "0")


def _outcome(op, x, y):
    """op(x, y) in the shape of `_expected`; a result word must pass the check."""
    try:
        out = op(x, y)
    except MotzkinError as exc:
        return type(exc), getattr(exc, "position", None)
    assert Word(out.text) == out
    return Word, out


def test_both_operations_match_a_brute_force_reference_on_every_pair(words_through):
    words = words_through(8)
    seen = set()
    for x in words:
        for y in words:
            for op in (padd, psub):
                expected = _expected(op, x, y)
                assert _outcome(op, x, y) == expected, (op.__name__, x, y)
                seen.add((op, expected[0]))
    assert seen == {(padd, IntersectsError), (padd, NestedOperandsError), (padd, Word),
                    (psub, NotSubwordError), (psub, NotTopLevelError), (psub, Word)}


def test_each_operation_matches_the_pairs_of_the_right_operand_alone(record):
    calls = record(pair_arith, "matched_pairs", lambda w: w)
    x, y, z = parse("()0000000"), parse("(0())0"), parse("()0(0())0")
    for op, left, right in ((padd, x, y), (psub, z, y), (padd, parse("(000000)"), parse("()00000")),
                            (psub, parse("(()())"), parse("()0"))):
        calls.clear()
        try:
            op(left, right)
        except MotzkinError:
            pass
        assert len(calls) == 1 and calls[0] is right, (op.__name__, left, right)


_W = 2000


@pytest.mark.parametrize("op, x, y, position", [
    (padd, "(" + "0" * (_W - 2) + ")", "()" + "0" * (_W - 2), 1),
    (padd, "()" + "0" * (_W - 2), "(" + "0" * (_W - 2) + ")", 1),
    (padd, "(" + "0" * (_W - 2) + ")", "()", _W),
    (padd, "()", "(" + "0" * (_W - 2) + ")", _W),
    (psub, "0(" + "0" * (_W - 3) + ")", "(" + "0" * (_W - 2) + ")", 1),
    (psub, "()", "(" + "0" * (_W - 2) + ")", 1),
    (psub, "(" + "0" * (_W - 4) + ")00", "(" + "0" * (_W - 2) + ")", _W),
])
def test_long_operands_clash_only_at_one_end(op, x, y, position):
    x, y = Word(x), Word(y)
    error = IntersectsError if op is padd else NotSubwordError
    assert _outcome(op, x, y) == _expected(op, x, y) == (error, position)


@st.composite
def block_disjoint_operands(draw):
    """x, y and their merge: canonical chunks of 2-40 symbols along 100-1000
    symbols, each chunk given whole to one operand and zeros to the other."""
    n = draw(st.integers(min_value=100, max_value=1000))
    sides, merged = ([], []), []
    while len(merged) < n:
        chunk = canonical_text(draw(st.binary(min_size=2, max_size=40)))
        mine = draw(st.booleans())
        sides[mine].append(chunk)
        sides[not mine].append("0" * len(chunk))
        merged += chunk
    x, y = ("".join(side).lstrip("0") or "0" for side in sides)
    return Word(x), Word(y), Word("".join(merged))


@settings(deadline=None, max_examples=25)
@given(block_disjoint_operands())
def test_long_block_disjoint_operands_add_ranks_and_subtract_back(operands):
    x, y, merged = operands
    z = padd(x, y)
    assert z == merged
    assert rank(z) == rank(x) + rank(y)
    assert psub(z, y) == x
    assert psub(z, x) == y
    for out in (z, psub(z, y), psub(z, x)):
        assert Word(out.text) == out


@settings(deadline=None, max_examples=25)
@given(canonical_texts(), st.data())
def test_a_block_inside_a_long_pair_span_is_refused(text, data):
    # "()" lands on two zeros inserted after `cut` symbols of the host word
    cut = data.draw(st.integers(min_value=1, max_value=len(text)))
    host = Word(text[:cut] + "00" + text[cut:])
    block = Word("()" + "0" * (len(text) - cut))
    inside = text[:cut].count("(") > text[:cut].count(")")
    for x, y in ((host, block), (block, host)):
        if inside:
            with pytest.raises(NestedOperandsError):
                padd(x, y)
        else:
            assert rank(padd(x, y)) == rank(x) + rank(y)


@settings(deadline=None, max_examples=25)
@given(canonical_texts(), st.data())
def test_psub_refuses_a_nested_or_altered_block_of_a_long_word(text, data):
    # one more pair around text nests every pair of text inside the host
    host = Word("(" + text + ")")
    triples = matched_pairs(Word(text))
    a, b, _ = triples[data.draw(st.integers(min_value=0, max_value=len(triples) - 1))]
    nested = Word(text[a - 1:b] + "0" * (len(text) - b + 1))
    with pytest.raises(NotTopLevelError, match=rf"block at \({a + 1}, {b + 1}\) "):
        psub(host, nested)
    # the host's one block with that pair blanked: the same span, fewer symbols
    # (a single changed symbol would unbalance the word)
    altered = Word("(" + text[:a - 1] + "0" + text[a:b - 1] + "0" + text[b:] + ")")
    with pytest.raises(NotTopLevelError, match=rf"block at \(1, {len(text) + 2}\) "):
        psub(host, altered)
    assert psub(host, host) == ZERO_WORD
