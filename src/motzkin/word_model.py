"""Motzkin words: parsing, ordering, and matched-pair structure.

A word is a string over the alphabet {'0', '(', ')'} whose parentheses
balance (every prefix has at least as many '(' as ')', and the totals are
equal).  Words may carry leading zeros internally; the canonical form used
for ranking has none, the single word "0" being the one exception.

`Word` accepts a valid text at C speed: deleting the three symbols leaves
nothing, the running height (`accumulate` over the steps) never drops below
0, and the '(' and ')' counts agree.  Only a text that fails this goes
through the per-character loop, which names the first error and its position.
Only `Word._balanced` skips the check, for two outputs known to balance.

`pair_triples` is the pair matcher, with plain (open, close, depth) tuples;
`matched_pairs` is its named view, the same pairs as `PairSite`s.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .errors import EmptyInputError, IllegalCharacterError, UnbalancedError

ZERO = "0"
OPEN = "("
CLOSE = ")"

_SYMBOL_ORDER = str.maketrans(ZERO + OPEN + CLOSE, "012")
_STEP = {ZERO: 0, OPEN: 1, CLOSE: -1}
_NOT_SYMBOLS = str.maketrans("", "", ZERO + OPEN + CLOSE)


class Word:
    """A validated Motzkin word.  Immutable; construction checks balance."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        object.__setattr__(self, "text", text)
        self.__post_init__()

    def __post_init__(self):
        text = self.text
        if (text and not text.translate(_NOT_SYMBOLS)
                and min(accumulate(map(_STEP.__getitem__, text))) >= 0
                and text.count(OPEN) == text.count(CLOSE)):
            return
        if not text:
            raise EmptyInputError("empty input")
        height = 0
        for pos, char in enumerate(text, start=1):
            if char not in _STEP:
                raise IllegalCharacterError(pos, char)
            height += _STEP[char]
            if height < 0:
                raise UnbalancedError(pos)
        raise UnbalancedError(None)  # every prefix is fine, so the counts differ

    @classmethod
    def _balanced(cls, text: str) -> Word:
        """A Word without the check, for `weights.unrank` (its walk ends at
        height 0, never below) and `pair_arith._word` (whole balanced blocks)."""
        w = object.__new__(cls)
        object.__setattr__(w, "text", text)
        return w

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.text == other.text if type(other) is Word else NotImplemented

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"Word(text={self.text!r})"

    def __reduce__(self):
        return Word, (self.text,)

    def __len__(self):
        return len(self.text)

    def __str__(self):
        return self.text


class PairSite(NamedTuple):
    """One matched pair: 1-based bracket positions plus nesting depth."""

    open_pos: int
    close_pos: int
    depth: int


_pair_site = partial(tuple.__new__, PairSite)


class PrimeSegment(NamedTuple):
    """A top-level block of a word, carried with its trailing zeros."""

    word: Word
    start_pos: int


def parse(text: str) -> Word:
    """Validate a character string and return it as a Word."""
    return Word(text)


def is_umw(w: Word) -> bool:
    """True for canonical words: no leading zero, except the word "0" itself."""
    return w.text == ZERO or w.text[0] == OPEN


def pair_triples(w: Word) -> list[tuple[int, int, int]]:
    """All matched pairs of a word as plain (open_pos, close_pos, depth) tuples.

    Pairs come in opening-bracket order.  Each '(' holds its slot with its
    position until its ')' writes the triple there; depth counts the strictly
    enclosing pairs, so a top-level pair has depth 0.
    """
    sites: list = []
    stack: list[int] = []
    for pos, char in enumerate(w.text, start=1):
        if char == OPEN:
            stack.append(len(sites))
            sites.append(pos)
        elif char == CLOSE:
            slot = stack.pop()
            sites[slot] = (sites[slot], pos, len(stack))
    return sites


def matched_pairs(w: Word) -> list[PairSite]:
    """The pairs of `pair_triples`, as `PairSite` named tuples."""
    return list(map(_pair_site, pair_triples(w)))


def prime_segments(w: Word) -> list[PrimeSegment]:
    """Split a word into its prime segments.

    Each segment starts at the '(' of a top-level pair and runs through the
    last symbol before the next top-level '(' (the final segment takes the
    rest of the word, trailing zeros included).  A word with no brackets has
    no segments.
    """
    starts = [a for a, _, depth in matched_pairs(w) if not depth]
    ends = [a - 1 for a in starts[1:]] + [len(w.text)]
    return [PrimeSegment(Word(w.text[a - 1:b]), a) for a, b in zip(starts, ends)]


def compare_lex(a: Word, b: Word) -> int:
    """Order words by length, then symbol-wise with '0' < '(' < ')'.

    Returns -1, 0, or 1.
    """
    ka = (len(a.text), a.text.translate(_SYMBOL_ORDER))
    kb = (len(b.text), b.text.translate(_SYMBOL_ORDER))
    return (ka > kb) - (ka < kb)


def strip_leading_zeros(w: Word) -> Word:
    """Drop leading zeros; an all-zero word collapses to "0"."""
    stripped = w.text.lstrip(ZERO)
    return Word(stripped) if stripped else Word(ZERO)
