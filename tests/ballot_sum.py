"""C(r, h) by the ballot sum, a referee for the completion table that reads
neither `sequences` nor `oracle`, and holds no table, at any row.

A suffix of r symbols that closes h opens has h + 2k brackets for some k:
choose their places among the r symbols, then arrange them as a ballot path
of h + k closes and k opens that never closes more than it has open:

    C(r, h) = sum over k of binom(r, h+2k) (h+1)/(h+k+1) binom(h+2k, k)

(OEIS A026300).  Each term is built from the one before it by the exact
ratio (r-h-2k)(r-h-2k-1) / ((k+1)(h+k+2)), starting from binom(r, h); one
`math.comb` pair per term is about 300 times slower at r = 10^4.
"""

import math


def ballot_completions(r: int, h: int) -> int:
    """C(r, h): suffixes of length r that close h opens (0 when h > r)."""
    total = term = math.comb(r, h)
    for k in range((r - h) // 2):
        term = term * (r - h - 2 * k) * (r - h - 2 * k - 1) // ((k + 1) * (h + k + 2))
        total += term
    return total
