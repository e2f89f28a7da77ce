"""The next canonical word, a referee for `rank` and `unrank` that reads
neither `sequences` nor `oracle`, and holds no table, at any length.

Canonical words are listed by length, then lexicographically over
0 < ( < ), starting from "0".  Within a length, the next word raises the
last symbol that can be raised with the word still completable, to the
least symbol that keeps it so, and then writes the least completion: zeros,
then ')' down to height 0.  The greatest word of length n, ()()… with a
final 0 when n is odd, is followed by (0^{n-1}).  This is the classic
successor rule for bracket strings (Knuth, *TAOCP* 4A §7.2.1.6).
"""

from itertools import accumulate

_SYMBOLS = "0()"
_RISE = {"0": 0, "(": 1, ")": -1}


def successor(text: str) -> str:
    """The canonical word right after `text` in length-then-lexicographic order."""
    n = len(text)
    heights = list(accumulate(map(_RISE.__getitem__, text), initial=0))
    for pos in range(n - 1, 0, -1):  # the first symbol of a longer word stays '('
        left = n - pos - 1
        for symbol in _SYMBOLS[_SYMBOLS.index(text[pos]) + 1:]:
            height = heights[pos] + _RISE[symbol]
            if 0 <= height <= left:
                return text[:pos] + symbol + "0" * (left - height) + ")" * height
    return "(" + "0" * (n - 1) + ")"
