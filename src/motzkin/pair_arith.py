"""Partial addition and subtraction of Motzkin words.

Operands are right-aligned: the shorter word is padded with leading zeros,
which leave its rank unchanged.  Zeros are transparent (0 + x = x per
position); the operations are partial because two non-zero symbols can
never share a position, and because the operands' top-level blocks must
occupy pairwise disjoint intervals.  Mere symbol-disjointness is not
enough: writing a block inside another pair's span would change that
pair's nesting and break the guarantee rank(x (+) y) = rank(x) + rank(y).
Nesting is a different operation and goes through the weight machinery.

Both work on bit masks of the '(' and ')' positions, the last symbol at
bit 0, so right-aligned operands line up unpadded; the leftmost clash is the
highest set bit, and the result is rebuilt from its masks.
"""

from .errors import (
    IntersectsError,
    NestedOperandsError,
    NotSubwordError,
    NotTopLevelError,
)
from .word_model import ZERO, Word, matched_pairs

_OPENS = str.maketrans("0()", "010")
_CLOSES = str.maketrans("0()", "001")
_FROM_HEX = str.maketrans("12", "()")


def _masks(w: Word) -> tuple[int, int]:
    text = w.text
    return int(text.translate(_OPENS), 2), int(text.translate(_CLOSES), 2)


def _top_spans(w: Word, width: int) -> list[tuple[int, int]]:
    """w's top-level pair spans, as if w were padded to `width` symbols."""
    shift = width - len(w.text)
    return [(a + shift, b + shift) for a, b, depth in matched_pairs(w) if not depth]


def _word(opens: int, closes: int) -> Word:
    """'(' at the set bits of opens, ')' at those of closes, no leading zeros."""
    # int(..., 16) of a binary numeral gives each bit a hex digit of its own
    digits = int(format(opens, "b"), 16) + (int(format(closes, "b"), 16) << 1)
    return Word(format(digits, "x").translate(_FROM_HEX))


def padd(x: Word, y: Word) -> Word:
    """Merge two words whose blocks occupy disjoint intervals; ranks add."""
    width = max(len(x.text), len(y.text))
    (ox, cx), (oy, cy) = _masks(x), _masks(y)
    clash = (ox | cx) & (oy | cy)
    if clash:
        raise IntersectsError(width - clash.bit_length() + 1)
    # Each operand's blocks are disjoint, so after one sort by opening
    # position any overlap shows up between neighbours.
    spans = sorted(_top_spans(x, width) + _top_spans(y, width))
    for outer, inner in zip(spans, spans[1:]):
        if inner[0] < outer[1]:
            if inner[1] < outer[1]:
                raise NestedOperandsError(
                    f"block at {inner} lies inside the pair span {outer}")
            raise NestedOperandsError(f"block spans {outer} and {inner} cross")
    return _word(ox | oy, cx | cy)


def psub(x: Word, y: Word) -> Word:
    """Remove y's top-level blocks from x (inverse of `padd`).

    Defined when y, right-aligned, carries only symbols x also carries,
    and every block of y is exactly one of x's top-level blocks, contents
    included.  Then rank(x) = rank(result) + rank(y).
    """
    width = max(len(x.text), len(y.text))
    (ox, cx), (oy, cy) = _masks(x), _masks(y)
    stray = (oy & ~ox) | (cy & ~cx)
    if stray:
        raise NotSubwordError(width - stray.bit_length() + 1)
    a, b = x.text.rjust(width, ZERO), y.text.rjust(width, ZERO)
    spans_a = set(_top_spans(x, width))
    for lo, hi in _top_spans(y, width):
        if (lo, hi) not in spans_a:
            raise NotTopLevelError(
                f"pair span ({lo}, {hi}) is not a top-level block of the left operand")
        if a[lo - 1:hi] != b[lo - 1:hi]:
            raise NotTopLevelError(
                f"block at ({lo}, {hi}) differs from the left operand's block there")
    return _word(ox ^ oy, cx ^ cy)
