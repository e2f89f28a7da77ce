"""Motzkin words: parsing, ordering, and matched-pair structure.

A word is a string over the alphabet {'0', '(', ')'} whose parentheses
balance (every prefix has at least as many '(' as ')', and the totals are
equal).  Words may carry leading zeros internally; the canonical form used
for ranking has none, the single word "0" being the one exception.

`parse` remembers the last valid text it read, if it has at most
`_STORE_MAX_LENGTH` symbols, with its `Word` and, once `matched_pairs` is
first asked for that text, its pairs, of which each later call gets a fresh
list.  So `rank(parse(t))` then `decompose(parse(t))` checks and matches t
once.  Nothing else is remembered: a `Word` built another way is matched on
each call unless its text is the remembered one.  The three are one tuple,
rebound and never changed, so a thread that reads it once needs no lock; a
racing `matched_pairs` may put back an older text, which only costs a later
miss.
"""

from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from .errors import EmptyInputError, IllegalCharacterError, UnbalancedError

ZERO = "0"
OPEN = "("
CLOSE = ")"

_SYMBOL_ORDER = str.maketrans(ZERO + OPEN + CLOSE, "012")
_STEP = {ZERO: 0, OPEN: 1, CLOSE: -1}
_NOT_SYMBOLS = str.maketrans("", "", ZERO + OPEN + CLOSE)

_STORE_MAX_LENGTH = 65_536
# (the text parsed last, its Word, its pairs as a tuple or None until first
# matched); before any parse its text is a fresh object, which neither a str nor
# None equals, so parse(None) still raises
_last: tuple = (object(), None, None)


class Word:
    """A validated Motzkin word.  Immutable; construction checks balance.

    A valid text passes at C speed: no symbol is left after deleting the
    three, the running height never drops below 0, and the bracket counts
    agree.  Only a failing text goes through the per-character loop, which
    names the first error and its position.  The text lives in one private
    slot, set only by `__init__` and `_balanced`, and is read through the
    property `text`, which has no setter or deleter; with no instance
    `__dict__`, no other attribute can be set.  Pickling and copying build
    the Word again from its text, so an unpickled text is checked.
    """

    __slots__ = ("_text",)
    text = property(attrgetter("_text"))

    def __init__(self, text: str):
        self._text = text
        self.__post_init__()

    def __post_init__(self):
        text = self._text
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
    def _balanced(cls, text: str) -> "Word":
        """A Word without the check, for `weights.unrank` (its walk ends at
        height 0, never below) and `pair_arith._word` (whole balanced blocks)."""
        w = object.__new__(cls)
        w._text = text
        return w

    def __eq__(self, other):
        return self._text == other._text if type(other) is Word else NotImplemented

    def __hash__(self):
        return hash(self._text)

    def __repr__(self):
        return f"Word(text={self._text!r})"

    def __reduce__(self):
        return Word, (self._text,)

    def __len__(self):
        return len(self._text)

    def __str__(self):
        return self._text


class PrimeSegment(NamedTuple):
    """A top-level block of a word, carried with its trailing zeros."""

    word: Word
    start_pos: int


def parse(text: str) -> Word:
    """Validate a character string and return it as a Word; the text parsed
    last returns the same Word, unchecked."""
    global _last
    last = _last
    if text == last[0]:
        return last[1]
    w = Word(text)
    if len(text) <= _STORE_MAX_LENGTH:
        _last = (text, w, None)
    return w


def is_umw(w: Word) -> bool:
    """True for canonical words: no leading zero, except the word "0" itself."""
    return w.text == ZERO or w.text[0] == OPEN


def matched_pairs(w: Word) -> list[tuple[int, int, int]]:
    """All matched pairs of a word as (open_pos, close_pos, depth) tuples, in
    opening-bracket order; depth counts the strictly enclosing pairs."""
    global _last
    last, text = _last, w.text
    if text == last[0] and last[2] is not None:
        return list(last[2])
    sites: list = []
    stack: list[int] = []
    for pos, char in enumerate(text, start=1):
        if char == OPEN:
            stack.append(len(sites))
            sites.append(pos)
        elif char == CLOSE:
            slot = stack.pop()
            sites[slot] = (sites[slot], pos, len(stack))
    if text == last[0]:
        _last = (last[0], last[1], tuple(sites))
    return sites


def prime_segments(w: Word) -> list[PrimeSegment]:
    """A word's prime segments: each runs from the '(' of a top-level pair
    through the last symbol before the next top-level '(', and the last takes
    the rest of the word.  A word with no brackets has none."""
    starts = [a for a, _, depth in matched_pairs(w) if not depth]
    ends = [a - 1 for a in starts[1:]] + [len(w.text)]
    return [PrimeSegment(Word(w.text[a - 1:b]), a) for a, b in zip(starts, ends)]


def compare_lex(a: Word, b: Word) -> int:
    """-1, 0 or 1: words ordered by length, then symbol-wise with '0' < '(' < ')'."""
    ka = (len(a.text), a.text.translate(_SYMBOL_ORDER))
    kb = (len(b.text), b.text.translate(_SYMBOL_ORDER))
    return (ka > kb) - (ka < kb)


def strip_leading_zeros(w: Word) -> Word:
    """Drop leading zeros; an all-zero word collapses to "0"."""
    stripped = w.text.lstrip(ZERO)
    return Word(stripped) if stripped else Word(ZERO)
