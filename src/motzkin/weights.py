"""Prime-pair weights, nest-weights, ranking, and pair decomposition.

A prime pair of size n with its ')' in the k-th position from the word end
has the shape (0^{n-k-1})0^{k-1}.  Nested s levels deep it contributes

    wt^(s)(n, k) = C(n-1, s) + C(k-1, s+1) + C(k-1, s+2),

one closed form for every depth over the completion table C of `sequences`.
A word's rank is the sum of its pairs' nest-weights at their own depths.

The lexicographic count is the same sum, regrouped.  Reading a word left to
right, at a symbol with `left` symbols after it and height h before it, the
count skips C(left, h) at each '(' and C(left, h) + C(left, h+1) at each
')'.  For a pair (n, k) at depth s these are C(n-1, s) at its '(' and
C(k-1, s+1) + C(k-1, s+2) at its ')', the three terms of its nest-weight.
So `unrank`, which walks the table one symbol at a time, undoes the
prime-pair sum term by term.

The paper's forms are identities of this one: depth 0 is M_{n-1} + delta(k)
and depth 1 is U_n + delta_prime(k).  The paper's three-in-one recurrence
wt^(s+1)(n, k) = wt^(s)(n+1, k+1) - wt^(s)(n, k) - wt^(s-1)(n, k) is the
triangle rule applied term by term: C(r+1, h) - C(r, h) - C(r, h-1) =
C(r, h+1) turns the right-hand side into C(n-1, s+1) + C(k-1, s+2) +
C(k-1, s+3).  Induction on s from the two base depths proves the form.

A call on a word of length L grows no column at or above `_cap(L)`; where
it would, it walks from `sequences._walk_state` by `sequences._step`.  So
`rank`, `unrank` and `decompose` grow the columns above 0 by at most
`_WALK_BUDGET_BITS` per call (column 0 grows to row L), and across calls
column c >= 1 stays under `_WALK_BUDGET_BITS / c` bits (tests/test_walk.py,
`test_each_column_above_0_stays_under_its_share_of_the_budget_across_calls`).
`pair_nest_weight` and `sequences.completions` grow whatever they are asked for.

This module reads `sequences._columns` only in `pair_nest_weight` and in
`unrank`'s table loop, and takes every other count from `completions` or
`_walk_state`, so it holds no triangle-rule difference of its own.
"""

from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple

from . import sequences
from .errors import (
    DomainViolationError,
    MotzkinError,
    NotCanonicalError,
    OverlapError,
    PositionConflictError,
    RangeTooLargeError,
    shown,
)
from .word_model import CLOSE, OPEN, ZERO, Word, is_umw, matched_pairs

# Longest word `compose` builds: it bounds the time of one call, linear in the length.
MAX_COMPOSE_LENGTH = 10_000_000

# Bits of completion-table columns above column 0 that one call may grow.  A
# call on a word of length L that would read column _cap(L) or higher walks
# instead; test_the_deepest_words_walk_from_478_symbols_on pins _cap(1000) = 55.
_WALK_BUDGET_BITS = 43_500_000


def _cap(length: int) -> int:
    """The lowest column a call on a word of this length walks instead of reading."""
    return _WALK_BUDGET_BITS * 100 // (79 * length * length)


def pair_weight(n: int, k: int) -> int:
    """Rank of the single-pair word of size n with ')' k-th from the end (n > k >= 1)."""
    return pair_nest_weight(n, k, 0)


def pair_nest_weight(n: int, k: int, s: int) -> int:
    """Weight of the (n, k) pair nested s levels deep: C(n-1, s) + C(k-1, s+1)
    + C(k-1, s+2).  A pair with k <= s cannot sit that deep (there are not
    enough closing brackets after it)."""
    if s < 0 or not n > k > s:
        raise DomainViolationError("nest weight requires n > k > s >= 0, "
                                   f"got n={shown(n)} k={shown(k)} s={shown(s)}")
    columns = sequences._columns
    try:
        return columns[s][n - 1] + columns[s + 1][k - 1] + columns[s + 2][k - 1]
    except IndexError:  # not stored yet: completions grows the table
        c = sequences.completions
        return c(n - 1, s) + c(k - 1, s + 1) + c(k - 1, s + 2)


def pair_catalog_index(n: int, k: int) -> int:
    """1-based index of the (n, k) pair in the catalog of all prime pairs."""
    if not n > k >= 1:
        raise DomainViolationError(
            f"catalog index requires n > k >= 1, got n={shown(n)} k={shown(k)}")
    return k + (n - 1) * (n - 2) // 2


def prime_pair_word(n: int, k: int) -> Word:
    """The word (0^{n-k-1})0^{k-1} of size n."""
    if not n > k >= 1:
        raise DomainViolationError(f"prime pair requires n > k >= 1, got n={shown(n)} k={shown(k)}")
    return Word(OPEN + ZERO * (n - k - 1) + CLOSE + ZERO * (k - 1))


class RangeExtrema(NamedTuple):
    min_word: Word
    min_weight: int
    max_word: Word
    max_weight: int


def range_extrema(n: int) -> RangeExtrema:
    """Smallest and largest canonical word of length n, with their ranks:
    (0^{n-2}) at M_{n-1}, and () repeated floor(n/2) times, with a final 0
    when n is odd, at M_n - 1."""
    if n < 1:
        raise DomainViolationError(f"range_extrema requires n >= 1, got {shown(n)}")
    if n == 1:
        zero = Word(ZERO)
        return RangeExtrema(zero, 0, zero, 0)
    lo = Word(OPEN + ZERO * (n - 2) + CLOSE)
    hi = Word((OPEN + CLOSE) * (n // 2) + ZERO * (n % 2))
    return RangeExtrema(lo, sequences.completions(n - 1, 0),
                        hi, sequences.completions(n, 0) - 1)


def _weigh(w: Word) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """The weighing pass of `rank` and `decompose`: (len + 1, pair triples,
    weights in opening order).  A word whose deepest read column, its greatest
    pair depth + 2, reaches its cap is walked; any other calls
    `pair_nest_weight` by its global name once per pair, so a tracer that
    rebinds the name sees every weight.  Only words of 478 symbols or more can
    reach the cap (`test_the_deepest_words_walk_from_478_symbols_on` in tests/test_walk.py)."""
    if not is_umw(w):
        raise NotCanonicalError(f"{shown(w.text)} is not canonical; strip leading zeros first")
    end = len(w.text) + 1
    triples = matched_pairs(w)
    cap = _cap(end - 1)
    # No pair sits deeper than (end - 1) // 2 - 1, so most words skip the depth scan.
    if (end - 1) // 2 + 1 >= cap and max(map(itemgetter(2), triples), default=0) + 2 >= cap:
        return end, triples, _walked_weights(w.text)
    return end, triples, [pair_nest_weight(end - a, end - b, depth) for a, b, depth in triples]


def _walked_weights(text: str) -> list[int]:
    """The pairs' nest-weights in opening order, walked without the table from
    `sequences._walk_state(n - 1, 0)`.  A '(' appends its term C(left, h) as
    its pair's weight and pushes that slot; a ')' adds its term C(left, h) +
    C(left, h+1) to the slot it pops, so the walk holds nothing per symbol.
    It stops before the last symbol, at row 0, where every term is 0."""
    n = len(text)
    a, b = sequences._walk_state(n - 1, 0)
    weights, opened, step = [], [], sequences._step
    for char, left in zip(text, range(n - 1, 0, -1)):
        rise = (char == OPEN) - (char == CLOSE)
        if rise > 0:
            opened.append(len(weights))
            weights.append(a)
        elif rise:
            weights[opened.pop()] += a + b
        a, b = step(left, len(opened) - rise, a, b, rise)  # the height before this symbol
    return weights


def rank(w: Word) -> int:
    """Rank of a canonical word: the sum of its pairs' nest-weights."""
    return sum(_weigh(w)[2])


def unrank(i: int) -> Word:
    """The canonical word of rank i (inverse of `rank`).

    Padding every canonical word of length <= n with leading zeros lists the
    M_n Motzkin words of length n in the same order.  So the walk takes the
    least n with i < M_n and picks the symbols of the padded word of rank i
    one at a time, skipping over completion counts; as n is least, the first
    is '(' (or i = 0 gives "0").  A '(' count C(left, h+1) that the table
    lacks is a miss: below `_cap(n)` the walk grows column h+1 through row
    `left`, even on the diagonal, where `completions` grows nothing; at or
    above it, `_unrank_walk` walks the rest of the word.  A walk that does not
    end at offset 0 and height 0 means an inconsistent table.
    """
    if i < 0:
        raise DomainViolationError(f"unrank requires a nonnegative index, got {shown(i)}")
    # M_n < 3^n, so the answer exceeds log_3 i >= floor(log2 i) / 1.59
    n = max(1, (i.bit_length() - 1) * 100 // 159)
    while sequences.completions(n, 0) <= i:
        n += 1
    columns, symbols = sequences._columns, []
    offset, height = i, 0
    for left in range(n - 1, -1, -1):
        zeros = columns[height][left]
        if offset < zeros:
            symbols.append(ZERO)
            continue
        try:
            opens = columns[height + 1][left]
        except IndexError:  # not stored yet: grown below the cap, walked from at it
            if height + 1 >= _cap(n):
                offset, height = _unrank_walk(symbols, offset, left, height)
                break
            sequences._grow(left + height + 1, height + 1)
            opens = columns[height + 1][left]
        offset -= zeros
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
        raise MotzkinError(f"unrank({shown(i)}) left offset {shown(offset)} at height {height}; "
                           "the completion table is inconsistent")
    return Word._balanced("".join(symbols))


def _unrank_walk(symbols: list[str], offset: int, left: int, height: int) -> tuple[int, int]:
    """The rest of `unrank`'s walk from row `left`, choosing each symbol off the
    walk state (zeros, opens) = (C(left, height), C(left, height+1)) from
    `sequences._walk_state(left, height)`.  Returns the final offset and height."""
    zeros, opens = sequences._walk_state(left, height)
    step = sequences._step
    while True:
        if offset < zeros:
            rise = 0
        else:
            offset -= zeros
            rise = 1 if offset < opens else -1
            if rise < 0:
                offset -= opens
        symbols.append((ZERO + OPEN + CLOSE)[rise])  # rise -1 picks the last, CLOSE
        if not left or height + rise < 0:  # the end, or an inconsistent table
            return offset, height + rise
        zeros, opens = step(left, height, zeros, opens, rise)
        height += rise
        left -= 1


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
    """Factor a canonical word into prime pairs with weight contributions, in
    opening-bracket order; the word "0" decomposes into nothing with total 0."""
    end, triples, contributions = _weigh(w)
    entries = tuple([_entry((end - a, end - b, depth, weight))
                     for (a, b, depth), weight in zip(triples, contributions)])
    return Decomposition(end - 1, entries, sum(contributions))


def compose(length: int, sites: Iterable[tuple[int, int]]) -> Word:
    """Rebuild a word from pair positions (inverse of `decompose`): '(' and ')'
    at the given 1-based positions, zeros everywhere else.  Spans must be
    pairwise disjoint or nested, positions distinct, and the result canonical.
    Lengths over MAX_COMPOSE_LENGTH are refused before anything is built."""
    if length < 1:
        raise DomainViolationError(f"compose requires length >= 1, got {shown(length)}")
    if length > MAX_COMPOSE_LENGTH:
        raise RangeTooLargeError(
            f"compose length {shown(length)} is over the maximum of {MAX_COMPOSE_LENGTH}")
    spans = [(a, b) for a, b in sites]
    chars = [ZERO] * length
    for a, b in spans:
        if not (1 <= a <= length and 1 <= b <= length):
            raise DomainViolationError(
                f"span ({shown(a)}, {shown(b)}) falls outside 1..{shown(length)}")
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
