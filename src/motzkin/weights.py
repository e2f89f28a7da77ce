"""Prime-pair weights, nest-weights, ranking, and pair decomposition.

A prime pair of size n with its ')' in the k-th position from the word end
has the shape (0^{n-k-1})0^{k-1}.  Nested s levels deep it contributes

    wt^(s)(n, k) = C(n-1, s) + C(k-1, s+1) + C(k-1, s+2),

one closed form for every depth over the completion table C of `sequences`.
A word's rank is the sum of its pairs' nest-weights at their own depths;
`unrank` walks the same table.

The paper's forms are identities of this one: depth 0 is M_{n-1} + delta(k)
and depth 1 is U_n + delta_prime(k).  The paper's three-in-one recurrence
wt^(s+1)(n, k) = wt^(s)(n+1, k+1) - wt^(s)(n, k) - wt^(s-1)(n, k) is the
triangle rule applied term by term: C(r+1, h) - C(r, h) - C(r, h-1) =
C(r, h+1) turns the right-hand side into C(n-1, s+1) + C(k-1, s+2) +
C(k-1, s+3).  Induction on s from the two base depths proves the form.

`pair_nest_weight` reads the table directly; `decompose` still calls it by
its global name once per pair, so a tracer that rebinds the name sees every
pair weight.  It weighs the pairs of `pair_triples` in opening order, which
keeps table growth in that order (closing order made cold ranks slower).
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple

from . import sequences
from .errors import (
    DomainViolationError,
    MotzkinError,
    NotCanonicalError,
    OverlapError,
    PositionConflictError,
)
from .word_model import CLOSE, OPEN, ZERO, Word, is_umw, matched_pairs, pair_triples


def pair_weight(n: int, k: int) -> int:
    """Rank of the single-pair word of size n with ')' k-th from the end (n > k >= 1)."""
    return pair_nest_weight(n, k, 0)


def pair_nest_weight(n: int, k: int, s: int) -> int:
    """Weight contributed by the (n, k) pair when nested s levels deep.

    C(n-1, s) + C(k-1, s+1) + C(k-1, s+2) over the completion table.  A pair
    with k <= s cannot sit that deep (there are not enough closing brackets
    after it).
    """
    if s < 0 or not n > k > s:
        raise DomainViolationError(
            f"nest weight requires n > k > s >= 0, got n={n} k={k} s={s}")
    columns = sequences._columns
    try:
        return columns[s][n - 1] + columns[s + 1][k - 1] + columns[s + 2][k - 1]
    except IndexError:  # not stored yet: completions grows the table
        c = sequences.completions
        return c(n - 1, s) + c(k - 1, s + 1) + c(k - 1, s + 2)


def pair_catalog_index(n: int, k: int) -> int:
    """1-based index of the (n, k) pair in the catalog of all prime pairs."""
    if not n > k >= 1:
        raise DomainViolationError(f"catalog index requires n > k >= 1, got n={n} k={k}")
    return k + (n - 1) * (n - 2) // 2


def prime_pair_word(n: int, k: int) -> Word:
    """The word (0^{n-k-1})0^{k-1} of size n."""
    if not n > k >= 1:
        raise DomainViolationError(f"prime pair requires n > k >= 1, got n={n} k={k}")
    return Word(OPEN + ZERO * (n - k - 1) + CLOSE + ZERO * (k - 1))


class RangeExtrema(NamedTuple):
    min_word: Word
    min_weight: int
    max_word: Word
    max_weight: int


def range_extrema(n: int) -> RangeExtrema:
    """Smallest and largest canonical word of length n, with their ranks.

    The minimum is (0^{n-2}) at rank M_{n-1}; the maximum is ()
    repeated floor(n/2) times, with a final 0 when n is odd, at M_n - 1.
    """
    if n < 1:
        raise DomainViolationError(f"range_extrema requires n >= 1, got {n}")
    if n == 1:
        zero = Word(ZERO)
        return RangeExtrema(zero, 0, zero, 0)
    lo = Word(OPEN + ZERO * (n - 2) + CLOSE)
    hi = Word((OPEN + CLOSE) * (n // 2) + ZERO * (n % 2))
    return RangeExtrema(lo, sequences.motzkin_number(n - 1),
                        hi, sequences.motzkin_number(n) - 1)


def rank(w: Word) -> int:
    """Rank of a canonical word: the sum of its pairs' nest-weights."""
    return decompose(w).total


def unrank(i: int) -> Word:
    """The canonical word of rank i (inverse of `rank`).

    Picks the length n with M_{n-1} <= i < M_n, then chooses one symbol at
    a time in alphabet order, skipping over completion counts until the
    remaining offset is exhausted (the '(' count is read only at brackets, and
    ')' comes last and needs no count).  A walk that does not end at offset 0
    and height 0 means an inconsistent table.
    """
    if i < 0:
        raise DomainViolationError(f"unrank requires a nonnegative index, got {i}")
    if i == 0:
        return Word(ZERO)
    # M_n < 3^n, so the answer exceeds log_3 i >= floor(log2 i) / 1.59
    n = max(1, (i.bit_length() - 1) * 100 // 159)
    while sequences.motzkin_number(n) <= i:
        n += 1
    offset = i - sequences.motzkin_number(n - 1)
    symbols = [OPEN]
    height = 1
    columns, c = sequences._columns, sequences.completions
    for left in range(n - 2, -1, -1):
        try:
            zeros = columns[height][left]
        except IndexError:  # not stored yet: completions grows the table
            zeros = c(left, height)
        if offset < zeros:
            symbols.append(ZERO)
            continue
        offset -= zeros
        try:
            opens = columns[height + 1][left]
        except IndexError:
            opens = c(left, height + 1)
        if offset < opens:
            symbols.append(OPEN)
            height += 1
        else:
            offset -= opens
            symbols.append(CLOSE)
            height -= 1
            if height < 0:  # only an inconsistent table gets here; reported below
                break
    if offset or height:
        raise MotzkinError(f"unrank({i}) left offset {offset} at height {height}; "
                           "the completion table is inconsistent")
    return Word._balanced("".join(symbols))


class DecompositionEntry(NamedTuple):
    n: int
    k: int
    depth: int
    contribution: int


_entry = partial(tuple.__new__, DecompositionEntry)


class Decomposition(NamedTuple):
    """A word's matched pairs as (n, k, depth) triples whose weights sum to its rank."""

    word_length: int
    entries: tuple[DecompositionEntry, ...]
    total: int


def decompose(w: Word) -> Decomposition:
    """Factor a canonical word into prime pairs with weight contributions.

    Entries follow the opening-bracket order; the word "0" decomposes into
    nothing with total 0.
    """
    if not is_umw(w):
        raise NotCanonicalError(f"{w.text!r} is not canonical; strip leading zeros first")
    end = len(w.text) + 1
    entries = tuple([_entry((n := end - a, k := end - b, depth, pair_nest_weight(n, k, depth)))
                     for a, b, depth in pair_triples(w)])
    return Decomposition(end - 1, entries, sum([e.contribution for e in entries]))


def compose(length: int, sites: Iterable[tuple[int, int]]) -> Word:
    """Rebuild a word from pair positions (inverse of `decompose`).

    Writes '(' and ')' at the given 1-based positions and zeros everywhere
    else.  Spans must be pairwise disjoint or nested, positions distinct,
    and the result must be canonical.
    """
    if length < 1:
        raise DomainViolationError(f"compose requires length >= 1, got {length}")
    spans = [(a, b) for a, b in sites]
    chars = [ZERO] * length
    for a, b in spans:
        if not (1 <= a <= length and 1 <= b <= length):
            raise DomainViolationError(f"span ({a}, {b}) falls outside 1..{length}")
        if a >= b:
            raise DomainViolationError(f"span ({a}, {b}) must open before it closes")
        for pos, char in ((a, OPEN), (b, CLOSE)):
            if chars[pos - 1] != ZERO:
                raise PositionConflictError(f"position {pos} claimed twice")
            chars[pos - 1] = char
    w = Word("".join(chars))  # balanced: every ')' follows its own '('
    crossing = set(spans).difference((a, b) for a, b, _ in matched_pairs(w))
    if crossing:
        raise OverlapError(f"span {min(crossing)} crosses another span")
    if not is_umw(w):
        raise NotCanonicalError("position 1 must open a pair for lengths >= 2")
    return w
