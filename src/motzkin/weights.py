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

`pair_nest_weight` reads the table directly.  `rank` and `decompose` share
one weighing pass; only `decompose` builds records.  It decides once per word
how to read C(r, h):

- On the table path it calls `pair_nest_weight` by its global name once per
  pair, in the opening order of `pair_triples`, so a tracer that rebinds the
  name sees every weight.  Opening order keeps table growth in that order
  (closing order made cold ranks slower).
- A word whose deepest read column, its greatest pair depth + 2, is at least
  `_cap` of its length is walked instead: `sequences._step` carries
  (C(left, h), C(left, h+1)) along the word, and each pair's weight is its
  term at '(' plus its term at ')'.  No column above 0 is read or grown.

`unrank` reads the table until its walk first needs column `_cap(n)`, and
walks the rest of the word from there.  Columns hold about 0.79 L^2 bits
each for a word of length L, so `_WALK_BUDGET_BITS` bounds the band either
call grows; column 0 is still grown to row L.  `_cap` alone picks the walk.
Words under 478 symbols cannot reach it, as n // 2 + 1 < `_cap(n)` there, so
`_weigh` skips their depth scan.
"""

from __future__ import annotations

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
)
from .word_model import CLOSE, OPEN, ZERO, Word, is_umw, matched_pairs, pair_triples

# Longest word `compose` builds: about 2 s and linear in the length on a 2-vCPU VM.
MAX_COMPOSE_LENGTH = 10_000_000

# Bits of completion-table columns above column 0 that one call may grow.  A
# call on a word of length L that would read column _cap(L) or higher walks
# instead; 43 500 000 bits gives _cap(1000) = 55.
_WALK_BUDGET_BITS = 43_500_000


def _cap(length: int) -> int:
    """The lowest column a call on a word of this length walks instead of reading."""
    return _WALK_BUDGET_BITS * 100 // (79 * length * length)


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


def _weigh(w: Word) -> tuple[int, list[tuple[int, int, int]], list[int]]:
    """The weighing pass of `rank` and `decompose`: (len + 1, pair triples, weights)."""
    if not is_umw(w):
        raise NotCanonicalError(f"{w.text!r} is not canonical; strip leading zeros first")
    end = len(w.text) + 1
    triples = pair_triples(w)
    cap = _cap(end - 1)
    # No pair sits deeper than (end - 1) // 2 - 1, so most words skip the depth scan.
    if (end - 1) // 2 + 1 >= cap and max(map(itemgetter(2), triples), default=0) + 2 >= cap:
        return end, triples, _walked_weights(w.text, triples)
    return end, triples, [pair_nest_weight(end - a, end - b, depth) for a, b, depth in triples]


def _walked_weights(text: str, triples: list[tuple[int, int, int]]) -> list[int]:
    """The pairs' nest-weights read off the word's lattice path, without the table.

    The count term of each symbol comes from the walk state (C(left, h),
    C(left, h+1)), which starts at (M_{n-1}, M_n - M_{n-1}).  The last symbol
    sits at row 0, where every term is 0, so the walk stops before it.
    """
    n = len(text)
    a = sequences.motzkin_number(n - 1)
    b = sequences.motzkin_number(n) - a
    terms, height, step = [0] * n, 0, sequences._step
    for pos, left in enumerate(range(n - 1, 0, -1)):
        char = text[pos]
        rise = (char == OPEN) - (char == CLOSE)
        if rise:
            terms[pos] = a if rise > 0 else a + b
        a, b = step(left, height, a, b, rise)
        height += rise
    return [terms[x - 1] + terms[y - 1] for x, y, _ in triples]


def rank(w: Word) -> int:
    """Rank of a canonical word: the sum of its pairs' nest-weights."""
    return sum(_weigh(w)[2])


def unrank(i: int) -> Word:
    """The canonical word of rank i (inverse of `rank`).

    Leading zeros act as in numerals: padding every canonical word of
    length <= n with zeros to length n lists the M_n Motzkin words of length
    n in the same order.  So the walk takes the least n with i < M_n and
    chooses the symbols of the padded word of rank i from offset i at height
    0, one at a time in alphabet order, skipping over completion counts.  As
    n is least, the first symbol skips the M_{n-1} shorter words and is '('
    (or i = 0 gives the word "0"): the walk writes no leading zero.  The '('
    count is read only at brackets, and ')' comes last and needs no count.

    The walk grows the table at one point.  Column 0 holds row n from the
    length search, and column h+1 is first read at the first bracket at
    height h, at row `left`; there the walk grows it if it is short.  Later
    reads of a column come at lower rows and columns only grow, so every
    other read finds its entry stored.  When that column is `_cap(n)`, the
    rest of the word is walked without the table instead, from C(left, h)
    and C(left, h+1) = C(left+1, h) - C(left, h) - C(left, h-1): column h
    holds row left + 1 since its own first read.  A walk that does not end
    at offset 0 and height 0 means an inconsistent table.
    """
    if i < 0:
        raise DomainViolationError(f"unrank requires a nonnegative index, got {i}")
    # M_n < 3^n, so the answer exceeds log_3 i >= floor(log2 i) / 1.59
    n = max(1, (i.bit_length() - 1) * 100 // 159)
    while sequences.motzkin_number(n) <= i:
        n += 1
    columns, symbols = sequences._columns, []
    cap = _cap(n)
    offset, height, top = i, 0, 0  # top: the highest column read so far
    for left in range(n - 1, -1, -1):
        zeros = columns[height][left]
        if offset < zeros:
            symbols.append(ZERO)
            continue
        if height == top:  # the first read of column top + 1, at row left
            top += 1
            if top >= cap:
                lower = columns[top - 2][left] if top > 1 else 0
                offset, height = _unrank_walk(symbols, offset, left, height, zeros,
                                              columns[top - 1][left + 1] - zeros - lower)
                break
            if len(columns) <= top or len(columns[top]) <= left:
                sequences._grow(left + top, top)
        offset -= zeros
        opens = columns[height + 1][left]
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


def _unrank_walk(symbols: list[str], offset: int, left: int, height: int,
                 zeros: int, opens: int) -> tuple[int, int]:
    """The rest of `unrank`'s walk from row `left`, choosing each symbol off the
    walk state (zeros, opens) = (C(left, height), C(left, height+1)) instead
    of the table.  Returns the final offset and height."""
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
    """Factor a canonical word into prime pairs with weight contributions.

    Entries follow the opening-bracket order; the word "0" decomposes into
    nothing with total 0.
    """
    end, triples, contributions = _weigh(w)
    entries = tuple([_entry((end - a, end - b, depth, weight))
                     for (a, b, depth), weight in zip(triples, contributions)])
    return Decomposition(end - 1, entries, sum(contributions))


def compose(length: int, sites: Iterable[tuple[int, int]]) -> Word:
    """Rebuild a word from pair positions (inverse of `decompose`).

    Writes '(' and ')' at the given 1-based positions and zeros everywhere
    else.  Spans must be pairwise disjoint or nested, positions distinct,
    and the result must be canonical.  Lengths over MAX_COMPOSE_LENGTH are
    refused before anything is built.
    """
    if length < 1:
        raise DomainViolationError(f"compose requires length >= 1, got {length}")
    if length > MAX_COMPOSE_LENGTH:
        raise RangeTooLargeError(
            f"compose length {length} is over the maximum of {MAX_COMPOSE_LENGTH}")
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
