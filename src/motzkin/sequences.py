"""Exact integer sequences behind the weight formulas.

The kernel is the completion table C(r, h), the Motzkin triangle (OEIS
A026300), with M_n = C(n, 0); `weights` reads every weight, rank and unrank
off it, from the stored table or, for deep words, from the walk below.
`unique_count`, `delta` and `delta_prime` keep the paper's
definitions in terms of M_n, so they stay independent identities.

The table is kept by column, _columns[h][r] = C(r, h), each grown only as
far as a call reads.  Column 0 holds the Motzkin numbers, grown by their
P-recurrence (n+2) M_n = (2n+1) M_{n-1} + 3(n-1) M_{n-2} (OEIS A001006).
Column h+1 is the triangle rule solved for its top term, C(r, h+1) =
C(r+1, h) - C(r, h) - C(r, h-1) with C(r, -1) = 0, so C(r, H) needs column
h only through row r + H - h.  A growth call slices only the new rows out
of the columns below, so its cost is proportional to the rows it adds.
Columns only grow, by slice stores at their own rows, so threads growing
the table at once never shift or duplicate an entry.  A stored entry is
final, so `weights` reads `_columns` directly on its hot paths.  Two callers
grow the table: `completions` on a miss (for `motzkin_number` and for
`weights.pair_nest_weight`), and `weights.unrank` through `_grow`, once at
each new height of its walk.

The table is one of two ways to read C(r, h).  The other stores nothing:
`_step` moves the pair (C(r, h), C(r, h+1)) one symbol along a word's lattice
path, to row r - 1 at height h - 1, h or h + 1.  Column h has generating
function x^h M(x)^{h+1}, and M is algebraic of degree 2, so each column obeys
a row step with small polynomial coefficients (Flajolet & Sedgewick,
*Analytic Combinatorics* VII; OEIS A026300).  With u = r - h, p = h + 1,
q = h + 2 and s = r + h + 3,

    3rq C(r-1, h)   = 2ps C(r, h+1) - uq C(r, h)
    3rp C(r-1, h+1) = 2uq C(r, h) - ps C(r, h+1),

and the triangle rule gives the third entry of row r - 1 from row r.  Both
divisions are exact, and the identities hold up to the diagonal.  A walk
starts at row n - 1, height 0, from (M_{n-1}, M_n - M_{n-1}) out of column 0.
`weights` walks the calls whose columns would outgrow its bit budget.
"""

from itertools import repeat

from .errors import DomainViolationError

_columns: list[list[int]] = [[1, 1]]


def completions(remaining: int, height: int) -> int:
    """C(remaining, height): suffixes of length `remaining` that close `height` opens."""
    if remaining < 0 or height < 0:
        raise DomainViolationError(
            f"completions requires remaining >= 0 and height >= 0, got ({remaining}, {height})")
    if height >= remaining:  # nothing to grow: one all-')' suffix on the diagonal, none above
        return int(height == remaining)
    try:
        return _columns[height][remaining]
    except IndexError:
        _grow(remaining + height, height)
        return _columns[height][remaining]


def _grow(top: int, height: int) -> None:
    """Extend each column h <= height through row top - h."""
    _columns.extend([] for _ in range(height + 1 - len(_columns)))
    low = height  # no column outgrows the one below it: stop at the first long enough
    while low and len(_columns[low - 1]) <= top - low + 1:
        low -= 1
    for h in range(low, height + 1):
        column, end = _columns[h], top - h + 1
        n = len(column)
        if h == 0:
            new, a, b = [], column[n - 2], column[n - 1]
            for m in range(n, end):
                a, b = b, ((2 * m + 1) * b + 3 * (m - 1) * a) // (m + 2)
                new.append(b)
        else:
            below, lower = _columns[h - 1], _columns[h - 2][n:end] if h > 1 else repeat(0)
            new = [a - b - c for a, b, c in zip(below[n + 1:end + 1], below[n:end], lower)]
        column[n:end] = new


def _step(r: int, h: int, a: int, b: int, rise: int) -> tuple[int, int]:
    """The walk state after one symbol: from (a, b) = (C(r, h), C(r, h+1)) at
    row r >= 1 to (C(r-1, g), C(r-1, g+1)) at g = h + rise, rise in {-1, 0, 1}."""
    u, p, q, s = r - h, h + 1, h + 2, r + h + 3
    ua, pb = u * q * a, p * s * b
    same = (2 * pb - ua) // (3 * r * q)  # C(r-1, h)
    above = (2 * ua - pb) // (3 * r * p)  # C(r-1, h+1)
    if rise > 0:
        return above, b - same - above  # C(r, h+1) is the sum of C(r-1, h..h+2)
    if rise < 0:
        return a - same - above, same  # C(r, h) is the sum of C(r-1, h-1..h+1)
    return same, above


def motzkin_number(n: int) -> int:
    """Motzkin number M_n = C(n, 0), the number of Motzkin words of length n."""
    return completions(n, 0)


def unique_count(n: int) -> int:
    """Number of canonical words of length n (the size of the n-range).

    U_1 = 1 (the single word "0"); U_n = M_n - M_{n-1} for n >= 2, which
    removes the words inherited from length n-1 by a leading zero.
    """
    if n < 1:
        raise DomainViolationError(f"unique_count requires n >= 1, got {n}")
    if n == 1:
        return 1
    return motzkin_number(n) - motzkin_number(n - 1)


def delta(k: int) -> int:
    """Offset added to M_{n-1} in the plain pair weight: U_{k+1} - M_{k-1}."""
    if k < 1:
        raise DomainViolationError(f"delta requires k >= 1, got {k}")
    return unique_count(k + 1) - motzkin_number(k - 1)


def delta_prime(k: int) -> int:
    """Offset added to U_n in first-order nest-weights: M_{k+2} - 2M_{k+1} - U_k."""
    if k < 2:
        raise DomainViolationError(f"delta_prime requires k >= 2, got {k}")
    return motzkin_number(k + 2) - 2 * motzkin_number(k + 1) - unique_count(k)
