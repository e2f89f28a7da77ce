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
highest set bit, and the result is rebuilt from its masks.  One rule then
decides the rest: each top-level block of y must be a top-level block, with
the same symbols, of the sum (`padd`) or of x (`psub`, where that is the
definition).  In the sum, y's block is unchanged only where x has zeros, and
is top-level only where x is at height 0, outside every pair span of x; so
it holds exactly when no block of x meets a block of y.  The height before a
block is 0 when the stretch since the previous block has as many '(' as ')'.
"""

from .errors import (
    IntersectsError,
    NestedOperandsError,
    NotSubwordError,
    NotTopLevelError,
)
from .word_model import Word, matched_pairs

_OPENS = str.maketrans("0()", "010")
_CLOSES = str.maketrans("0()", "001")
_FROM_HEX = str.maketrans("12", "()")


def _masks(w: Word) -> tuple[int, int]:
    text = w.text
    return int(text.translate(_OPENS), 2), int(text.translate(_CLOSES), 2)


def _word(opens: int, closes: int) -> Word:
    """'(' at the set bits of opens, ')' at those of closes, no leading zeros."""
    # int(..., 16) of a binary numeral gives each bit a hex digit of its own
    digits = int(format(opens, "b"), 16) + (int(format(closes, "b"), 16) << 1)
    return Word._balanced(format(digits, "x").translate(_FROM_HEX))


def _same_blocks(y: Word, text: str, width: int, error: type, fault: str) -> None:
    """Raise `error` at the first top-level block of y, right-aligned, that is
    not a top-level block of `text` with the same symbols."""
    ytext = y.text
    shift, end = len(text) - len(ytext), 0
    for lo, hi, depth in matched_pairs(y):
        if not depth:
            start = lo - 1 + shift
            if (text.count("(", end, start) != text.count(")", end, start)
                    or not text.startswith(ytext[lo - 1:hi], start)):
                pad = width - len(ytext)
                raise error(f"the right operand's block at ({lo + pad}, {hi + pad}) {fault}")
            end = hi + shift


def padd(x: Word, y: Word) -> Word:
    """Merge two words whose blocks occupy disjoint intervals; ranks add."""
    width = max(len(x.text), len(y.text))
    (ox, cx), (oy, cy) = _masks(x), _masks(y)
    clash = (ox | cx) & (oy | cy)
    if clash:
        raise IntersectsError(width - clash.bit_length() + 1)
    z = _word(ox | oy, cx | cy)
    _same_blocks(y, z.text, width, NestedOperandsError, "overlaps a block of the left operand")
    return z


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
    _same_blocks(y, x.text, width, NotTopLevelError, "is not a top-level block of the left operand")
    return _word(ox ^ oy, cx ^ cy)
