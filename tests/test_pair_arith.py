from types import FunctionType

import pytest
from hypothesis import given, settings, strategies as st

from motzkin import pair_arith, word_model
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
            for out, expected in ((padd(x, y), z), (padd(y, x), z), (psub(z, x), y),
                                  (psub(z, y), x)):
                assert out == expected and Word(out.text) == out
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


def test_psub_outcomes_match_a_per_position_scan_and_brute_force_spans(words_through):
    words = words_through(8)
    seen = set()
    for x in words:
        for y in words:
            n = max(len(x), len(y))
            a, b = x.text.rjust(n, "0"), y.text.rjust(n, "0")
            x_spans = _top_spans_by_brute_force(a)
            if _bad_positions(x, y, _stray):
                expected = NotSubwordError
            elif any((lo, hi) not in x_spans or a[lo - 1:hi] != b[lo - 1:hi]
                     for lo, hi in _top_spans_by_brute_force(b)):
                expected = NotTopLevelError
            else:
                kept = "".join(ca if cb == "0" else "0" for ca, cb in zip(a, b))
                expected = Word(kept.lstrip("0") or "0")
            try:
                outcome = psub(x, y)
            except MotzkinError as exc:
                outcome = type(exc)
            assert outcome == expected, (x, y)
            seen.add(expected if isinstance(expected, type) else Word)
    assert seen == {NotSubwordError, NotTopLevelError, Word}


def test_each_operation_matches_the_pairs_of_the_right_operand_alone(monkeypatch):
    calls = []
    real = pair_arith.matched_pairs
    monkeypatch.setattr(pair_arith, "matched_pairs", lambda w: calls.append(w) or real(w))
    x, y, z = parse("()0000000"), parse("(0())0"), parse("()0(0())0")
    for op, left, right in ((padd, x, y), (psub, z, y), (padd, parse("(000000)"), parse("()00000")),
                            (psub, parse("(()())"), parse("()0"))):
        calls.clear()
        try:
            op(left, right)
        except MotzkinError:
            pass
        assert len(calls) == 1 and calls[0] is right, (op.__name__, left, right)


def test_pair_arith_keeps_two_public_functions_and_the_pinned_import():
    public = sorted(name for name, value in vars(pair_arith).items()
                    if not name.startswith("_") and isinstance(value, FunctionType)
                    and value.__module__ == pair_arith.__name__)
    assert public == ["padd", "psub"]
    assert pair_arith.matched_pairs is word_model.matched_pairs


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
