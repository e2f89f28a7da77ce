"""Partial addition and subtraction of Motzkin words, right-aligned.

The leading zeros that pad the shorter operand leave its rank unchanged.
One block rule decides both operations: each top-level block of y must be a
top-level block, symbol for symbol, of the sum (`padd`) or of x (`psub`).
So no block lands inside another's pair span, no pair's nesting changes,
and rank(x (+) y) = rank(x) + rank(y).  Both read a word as bit masks of its
'(' and ')' positions, the last symbol lowest, so the leftmost clash is the
highest set bit.
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
    """Raise `error` at the first block of y, right-aligned on `text`, that
    breaks the block rule.  A block of `text` is top-level where the stretch
    since the previous block has as many '(' as ')'."""
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
    """The sum of two words under the block rule; ranks add."""
    width = max(len(x.text), len(y.text))
    (ox, cx), (oy, cy) = _masks(x), _masks(y)
    clash = (ox | cx) & (oy | cy)
    if clash:
        raise IntersectsError(width - clash.bit_length() + 1)
    z = _word(ox | oy, cx | cy)
    _same_blocks(y, z.text, width, NestedOperandsError, "overlaps a block of the left operand")
    return z


def psub(x: Word, y: Word) -> Word:
    """x without y's top-level blocks, the inverse of `padd`: y, right-aligned,
    carries only symbols of x, and rank(x) = rank(result) + rank(y)."""
    width = max(len(x.text), len(y.text))
    (ox, cx), (oy, cy) = _masks(x), _masks(y)
    stray = (oy & ~ox) | (cy & ~cx)
    if stray:
        raise NotSubwordError(width - stray.bit_length() + 1)
    _same_blocks(y, x.text, width, NotTopLevelError, "is not a top-level block of the left operand")
    return _word(ox ^ oy, cx ^ cy)
