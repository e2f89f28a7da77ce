"""Exact integer sequences behind the weight formulas.

The kernel is the completion table C(r, h), the Motzkin triangle (OEIS
A026300), with M_n = C(n, 0); `weights` reads every weight, rank and unrank
off it.  `unique_count`, `delta` and `delta_prime` keep the paper's
definitions in terms of M_n, so they stay independent identities.  Values
are exact ints; the table grows on demand, a whole row at a time.
"""

from itertools import chain, islice

from .errors import DomainViolationError

_completion_rows: list[list[int]] = [[1]]


def completions(remaining: int, height: int) -> int:
    """C(remaining, height): suffixes of length `remaining` that close `height` opens.

    Rows grow by the triangle rule C(r, h) = C(r-1, h-1) + C(r-1, h) + C(r-1, h+1).
    """
    if remaining < 0 or height < 0:
        raise DomainViolationError(
            f"completions requires remaining >= 0 and height >= 0, got ({remaining}, {height})")
    if height > remaining:
        return 0
    while (r := len(_completion_rows)) <= remaining:
        prev = _completion_rows[r - 1]
        # C(r-1, h-1), C(r-1, h), C(r-1, h+1) for h = 0..r, zero off the triangle
        lower = chain((0,), prev)
        same = chain(prev, (0,))
        higher = chain(islice(prev, 1, None), (0, 0))
        # A slice store, not append: if another thread already added row r,
        # it is overwritten with the same values instead of duplicated.
        _completion_rows[r:r + 1] = [[a + b + c for a, b, c in zip(lower, same, higher)]]
    return _completion_rows[remaining][height]


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
