import pytest

from motzkin.errors import (
    IntersectsError,
    MotzkinError,
    NestedOperandsError,
    NotSubwordError,
    NotTopLevelError,
)
from motzkin.pair_arith import padd, psub
from motzkin.word_model import Word, parse

from arith_enumeration import defined_applications

ZERO_WORD = Word("0")


def test_padd_worked_example():
    assert padd(parse("()0000000"), parse("(0())0")) == Word("()0(0())0")


def test_padd_identity_element():
    assert padd(parse("0"), parse("(0)")) == Word("(0)")
    assert padd(parse("(0)"), parse("0")) == Word("(0)")
    assert padd(parse("0"), parse("0")) == ZERO_WORD


def test_padd_intersection_is_an_error():
    with pytest.raises(IntersectsError) as exc:
        padd(parse("(00)"), parse("()"))
    assert exc.value.position == 4


def test_padd_rejects_nesting():
    # "()" would land inside the other operand's pair span; the merged word
    # exists but its rank is 242, not 127 + 106, so the operation refuses.
    with pytest.raises(NestedOperandsError):
        padd(parse("(000000)"), parse("()00000"))


def test_padd_rejects_crossing_spans():
    with pytest.raises(NestedOperandsError):
        padd(parse("(00)0"), parse("00(0)"))


def test_padd_canonicalizes_padded_operands():
    assert padd(parse("00()00"), parse("0")) == Word("()00")


def test_psub_worked_examples():
    assert psub(parse("()0(0())0"), parse("()0000000")) == Word("(0())0")
    assert psub(parse("()0(0())0"), parse("(0())0")) == Word("()0000000")
    assert psub(parse("(0)"), parse("(0)")) == ZERO_WORD


def test_psub_not_a_subword():
    with pytest.raises(NotSubwordError) as exc:
        psub(parse("(())"), parse("()"))
    assert exc.value.position == 3


def test_psub_block_must_be_top_level():
    with pytest.raises(NotTopLevelError):
        psub(parse("(()())"), parse("()0"))


def test_psub_block_contents_must_match():
    # same span, different block: removing "(00)" from "(())" would leave
    # "()" behind and break rank additivity
    with pytest.raises(NotTopLevelError):
        psub(parse("(())"), parse("(00)"))


def test_identities_exhaustively(words_through):
    for x in words_through(8):
        assert padd(x, ZERO_WORD) == x
        assert padd(ZERO_WORD, x) == x
        assert psub(x, ZERO_WORD) == x
        assert psub(x, x) == ZERO_WORD


def test_defined_applications_roundtrip(words_through):
    seen = 0
    for z in words_through(8):
        for x, y in defined_applications(z):
            assert padd(x, y) == z
            assert padd(y, x) == z
            assert psub(z, x) == y
            assert psub(z, y) == x
            seen += 1
    assert seen == 231  # sum over words of 2^(top blocks - 1) - 1


def test_leading_zeros_on_operands_do_not_matter(words_through):
    # right-alignment makes explicit left padding a no-op
    for z in words_through(7):
        for x, y in defined_applications(z):
            padded = Word("00" + y.text)
            assert padd(x, padded) == z
            assert padd(padded, x) == z


def test_definedness_matches_the_constructive_enumeration(words_through):
    words = words_through(7)
    defined = {("0", "0")}
    for w in words:
        defined.add((w.text, "0"))
        defined.add(("0", w.text))
        for x, y in defined_applications(w):
            defined.add((x.text, y.text))
            defined.add((y.text, x.text))
    for a in words:
        for b in words:
            try:
                padd(a, b)
                outcome = True
            except MotzkinError:
                outcome = False
            assert outcome == ((a.text, b.text) in defined), (a, b)


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


def test_block_check_matches_a_pairwise_span_check(words_through):
    words = words_through(8)
    for x in words:
        for y in words:
            n = max(len(x), len(y))
            a, b = x.text.rjust(n, "0"), y.text.rjust(n, "0")
            if any(ca != "0" != cb for ca, cb in zip(a, b)):
                expected = IntersectsError
            elif any(not (pa[1] < pb[0] or pb[1] < pa[0])
                     for pa in _top_spans_by_brute_force(a)
                     for pb in _top_spans_by_brute_force(b)):
                expected = NestedOperandsError
            else:
                expected = None
            try:
                padd(x, y)
                outcome = None
            except MotzkinError as exc:
                outcome = type(exc)
            assert outcome is expected, (x, y)


def _bad_positions(x, y, bad):
    """Every right-aligned position where bad(symbol of x, symbol of y) holds."""
    n = max(len(x.text), len(y.text))
    pairs = zip(x.text.rjust(n, "0"), y.text.rjust(n, "0"))
    return [pos for pos, (cx, cy) in enumerate(pairs, start=1) if bad(cx, cy)]


def _clash(cx, cy):
    return cx != "0" and cy != "0"


def _stray(cx, cy):
    return cy != "0" and cy != cx


_CHECKS = {padd: (IntersectsError, _clash), psub: (NotSubwordError, _stray)}


def _raised_position(op, x, y):
    try:
        op(x, y)
    except _CHECKS[op][0] as exc:
        return exc.position
    except MotzkinError:
        pass
    return None


def test_clash_positions_match_a_per_position_scan(words_through):
    words = words_through(8)
    for x in words:
        for y in words:
            for op, (_, bad) in _CHECKS.items():
                first = next(iter(_bad_positions(x, y, bad)), None)
                assert _raised_position(op, x, y) == first, (op.__name__, x, y)


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
    assert _bad_positions(x, y, _CHECKS[op][1]) == [position]
    assert _raised_position(op, x, y) == position
