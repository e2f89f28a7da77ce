"""Partial addition and subtraction of Motzkin words.

Operands are right-aligned: the shorter word is padded with leading zeros,
which leave its rank unchanged.  Zeros are transparent (0 + x = x per
position); the operations are partial because two non-zero symbols can
never share a position, and because the operands' top-level blocks must
occupy pairwise disjoint intervals.  Mere symbol-disjointness is not
enough: writing a block inside another pair's span would change that
pair's nesting and break the guarantee rank(x (+) y) = rank(x) + rank(y).
Nesting is a different operation and goes through the weight machinery.
"""

from .errors import (
    IntersectsError,
    NestedOperandsError,
    NotSubwordError,
    NotTopLevelError,
)
from .word_model import ZERO, Word, matched_pairs, strip_leading_zeros


def _aligned(x: Word, y: Word) -> tuple[str, str]:
    n = max(len(x), len(y))
    return x.text.rjust(n, ZERO), y.text.rjust(n, ZERO)


def _top_spans(text: str) -> list[tuple[int, int]]:
    return [(s.open_pos, s.close_pos) for s in matched_pairs(Word(text)) if s.depth == 0]


def padd(x: Word, y: Word) -> Word:
    """Merge two words whose blocks occupy disjoint intervals; ranks add."""
    a, b = _aligned(x, y)
    for pos, (ca, cb) in enumerate(zip(a, b), start=1):
        if ca != ZERO and cb != ZERO:
            raise IntersectsError(pos)
    # Each operand's blocks are disjoint, so after one sort by opening
    # position any overlap shows up between neighbours.
    spans = sorted(_top_spans(a) + _top_spans(b))
    for outer, inner in zip(spans, spans[1:]):
        if inner[0] < outer[1]:
            if inner[1] < outer[1]:
                raise NestedOperandsError(
                    f"block at {inner} lies inside the pair span {outer}")
            raise NestedOperandsError(f"block spans {outer} and {inner} cross")
    merged = "".join(cb if ca == ZERO else ca for ca, cb in zip(a, b))
    return strip_leading_zeros(Word(merged))


def psub(x: Word, y: Word) -> Word:
    """Remove y's top-level blocks from x (inverse of `padd`).

    Defined when y, right-aligned, carries only symbols x also carries,
    and every block of y is exactly one of x's top-level blocks, contents
    included.  Then rank(x) = rank(result) + rank(y).
    """
    a, b = _aligned(x, y)
    for pos, (ca, cb) in enumerate(zip(a, b), start=1):
        if cb != ZERO and cb != ca:
            raise NotSubwordError(pos)
    spans_a = set(_top_spans(a))
    for lo, hi in _top_spans(b):
        if (lo, hi) not in spans_a:
            raise NotTopLevelError(
                f"pair span ({lo}, {hi}) is not a top-level block of the left operand")
        if a[lo - 1:hi] != b[lo - 1:hi]:
            raise NotTopLevelError(
                f"block at ({lo}, {hi}) differs from the left operand's block there")
    cleared = "".join(ZERO if cb != ZERO else ca for ca, cb in zip(a, b))
    return strip_leading_zeros(Word(cleared))
