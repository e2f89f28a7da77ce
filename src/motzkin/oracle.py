"""Brute-force ground truth: enumeration and counting from first principles.

This module is the referee for the closed-form weight machinery, so it must
stay independent of it: no imports from `weights` or `sequences`, ever.
Everything here is built from backtracking enumeration and the completion
count recurrence alone.  Pure functions over a grow-only table; safe for
concurrent readers after a single-threaded warm-up.
"""

from .errors import DomainViolationError, NotCanonicalError, RangeTooLargeError, shown
from .word_model import CLOSE, OPEN, ZERO, Word, is_umw

# Cumulative word counts grow roughly like 3^n; this keeps exhaustive runs
# in the seconds range.
MAX_ENUM_LENGTH = 16

_completion_rows: list[list[int]] = [[1]]


def completions(remaining: int, height: int) -> int:
    """Number of length-`remaining` suffixes that close `height` opens.

    Counts strings over {'0', '(', ')'} that keep the running balance
    nonnegative and end at balance zero, starting from balance `height`.
    """
    if remaining < 0 or height < 0:
        raise DomainViolationError("completions requires remaining >= 0 and height >= 0, "
                                   f"got ({shown(remaining)}, {shown(height)})")
    if height > remaining:
        return 0
    while len(_completion_rows) <= remaining:
        r = len(_completion_rows)
        prev = _completion_rows[r - 1]
        row = []
        for h in range(r + 1):
            total = prev[h - 1] if h > 0 else 0
            if h < r:
                total += prev[h]
            if h + 1 < r:
                total += prev[h + 1]
            row.append(total)
        _completion_rows[r:r + 1] = [row]
    return _completion_rows[remaining][height]


def enumerate_range(n: int) -> list[Word]:
    """All canonical words of length n, in lexicographic order.

    Backtracking over balanced strings that start with '(' (the sole
    length-1 word is "0"); candidate symbols are tried in the alphabet
    order '0' < '(' < ')', so the output needs no sorting.
    """
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
        if height <= left:
            buf[pos] = ZERO
            extend(pos + 1, height)
        if height + 1 <= left:
            buf[pos] = OPEN
            extend(pos + 1, height + 1)
        if height > 0:
            buf[pos] = CLOSE
            extend(pos + 1, height - 1)

    extend(1, 1)
    return words


def rank_by_counting(w: Word) -> int:
    """Rank of a canonical word, by counting smaller words symbol-by-symbol.

    All shorter canonical words come first (their total is completions(L-1, 0));
    then, for each position, every lexicographically smaller same-length word
    is counted through the completion table.  No weight formulas involved.
    """
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
