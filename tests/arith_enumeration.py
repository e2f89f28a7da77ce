"""Exhaustive enumeration of defined partial additions, by construction.

Two canonical words of equal length >= 2 always collide at position 1, so
every defined application with canonical operands has a longer word x and a
shorter word y.  Merging then splits the result's top-level blocks between
the operands, with x keeping the first block.  Running the split backwards
enumerates every defined application whose result is a given word z: keep
any nonempty subset of z's non-initial top-level blocks for y (stripping
the leading zeros the split leaves), give the rest to x.
"""

from motzkin.word_model import Word, matched_pairs, strip_leading_zeros


def defined_applications(z: Word):
    """Yield every (x, y) of canonical words with padd(x, y) == z, len x > len y."""
    tops = [(a - 1, b) for a, b, depth in matched_pairs(z) if depth == 0]
    text = z.text
    movable = tops[1:]
    for mask in range(1, 1 << len(movable)):
        to_y = [span for i, span in enumerate(movable) if mask & (1 << i)]
        x_chars = list(text)
        y_chars = ["0"] * len(text)
        for lo, hi in to_y:
            x_chars[lo:hi] = "0" * (hi - lo)
            y_chars[lo:hi] = text[lo:hi]
        yield Word("".join(x_chars)), strip_leading_zeros(Word("".join(y_chars)))
