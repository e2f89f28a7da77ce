"""Brute-force ground truth: enumeration and counting from first principles.

The referee of the formula side, so it imports nothing from `sequences` or
`weights` (`test_oracle_is_independent_of_the_formula_modules`).  The
triangle is a grow-only list of rows, each stored by a slice store at its
own index, so threads growing it at once neither duplicate nor skip a row.
"""

from .errors import DomainViolationError, NotCanonicalError, RangeTooLargeError, shown
from .word_model import CLOSE, OPEN, ZERO, Word, is_umw

# Longest words `enumerate_range` lists: word counts grow exponentially with
# the length, so this bounds the time of an exhaustive run.
MAX_ENUM_LENGTH = 16

_completion_rows: list[list[int]] = [[1]]


def completions(remaining: int, height: int) -> int:
    """C(remaining, height), the suffixes of `remaining` symbols that close
    `height` opens: each row is the row above, padded with zeros, under the
    triangle rule C(r, h) = C(r-1, h-1) + C(r-1, h) + C(r-1, h+1)."""
    if remaining < 0 or height < 0:
        raise DomainViolationError("completions requires remaining >= 0 and height >= 0, "
                                   f"got ({shown(remaining)}, {shown(height)})")
    if height > remaining:
        return 0
    while len(_completion_rows) <= remaining:
        r = len(_completion_rows)
        padded = [0, *_completion_rows[r - 1], 0, 0]
        _completion_rows[r:r + 1] = [[a + b + c for a, b, c in zip(padded, padded[1:], padded[2:])]]
    return _completion_rows[remaining][height]


def enumerate_range(n: int) -> list[Word]:
    """All canonical words of length n, in order: each symbol, tried in the
    order '0' < '(' < ')', is placed while the height stays within 0..left,
    the symbols still to come."""
    if n < 1:
        raise DomainViolationError(f"enumerate_range requires n >= 1, got {shown(n)}")
    if n > MAX_ENUM_LENGTH:
        raise RangeTooLargeError(
            f"length {shown(n)} exceeds the enumeration guard of {MAX_ENUM_LENGTH}")
    if n == 1:
        return [Word(ZERO)]

    words: list[Word] = []
    buf = [OPEN] * n

    def extend(pos: int, height: int):
        if pos == n:
            words.append(Word("".join(buf)))
            return
        left = n - pos - 1
        for symbol, rise in ((ZERO, 0), (OPEN, 1), (CLOSE, -1)):
            if 0 <= height + rise <= left:
                buf[pos] = symbol
                extend(pos + 1, height + rise)

    extend(1, 1)
    return words


def rank_by_counting(w: Word) -> int:
    """Rank of a canonical word, counted: every shorter word, then at each
    position every same-length word with a smaller symbol there."""
    if not is_umw(w):
        raise NotCanonicalError(f"{shown(w.text)} is not canonical")
    text = w.text
    if text == ZERO:
        return 0
    n = len(text)
    rank = completions(n - 1, 0)
    height = 1
    for pos in range(1, n):
        left = n - pos - 1
        char = text[pos]
        if char != ZERO:
            rank += completions(left, height)
        if char == CLOSE:
            rank += completions(left, height + 1)
            height -= 1
        elif char == OPEN:
            height += 1
    return rank
