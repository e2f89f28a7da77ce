"""The cross-checks of the formulas against `oracle` behind ``motzkin verify``;
they live here for the independence that `oracle` states."""

from typing import NamedTuple

from . import oracle, sequences, weights
from .word_model import compare_lex


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, failures[0])
    return CheckResult(name, True, detail)


def run_checks(max_len: int) -> list[CheckResult]:
    """One `CheckResult` per check, over the canonical words of every length up
    to `max_len`."""
    last = oracle.enumerate_range(max_len)  # refuses a bad length before any work
    ranges = [oracle.enumerate_range(n) for n in range(1, max_len)] + [last]
    ordered = [w for words in ranges for w in words]
    results = []

    failures = [f"length {n}: {len(words)} words, expected {sequences.unique_count(n)}"
                for n, words in enumerate(ranges, start=1)
                if len(words) != sequences.unique_count(n)]
    results.append(_result("range-sizes", failures,
                           f"{len(ordered)} words over lengths 1..{max_len}"))

    failures = [f"{prev} !< {cur}" for prev, cur in zip(ordered, ordered[1:])
                if compare_lex(prev, cur) != -1]
    results.append(_result("lexicographic-order", failures,
                           f"{len(ordered)} words strictly increasing"))

    failures = []
    for position, w in enumerate(ordered):
        by_formula = weights.rank(w)
        by_counting = oracle.rank_by_counting(w)
        if not by_formula == by_counting == position:
            failures.append(f"{w}: formula {by_formula}, counting {by_counting}, "
                            f"position {position}")
    results.append(_result("rank-agreement", failures, f"{len(ordered)} words"))

    failures = [f"unrank({position}) = {weights.unrank(position)}, expected {w}"
                for position, w in enumerate(ordered)
                if weights.unrank(position) != w]
    results.append(_result("unrank-bijection", failures, f"{len(ordered)} indices"))

    top = max(max_len, 20)
    failures = [f"completions({r}, {h}): table {sequences.completions(r, h)}, "
                f"oracle {oracle.completions(r, h)}"
                for r in range(top + 1) for h in range(r + 1)
                if sequences.completions(r, h) != oracle.completions(r, h)]
    results.append(_result("completions-vs-motzkin", failures, f"lengths 0..{top}"))

    failures = []
    for n in range(2, max_len + 1):
        extrema = weights.range_extrema(n)
        words = ranges[n - 1]
        if words[0] != extrema.min_word or words[-1] != extrema.max_word:
            failures.append(f"length {n}: enumeration endpoints do not match extrema")
        elif (weights.rank(extrema.min_word) != extrema.min_weight
              or weights.rank(extrema.max_word) != extrema.max_weight):
            failures.append(f"length {n}: extrema weights disagree with rank")
    results.append(_result("range-extrema", failures, f"lengths 2..{max_len}"))

    return results
