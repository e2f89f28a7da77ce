"""What an error message shows of a caller's value: `errors.shown`, and every
guard that shows a value through it.

Ranks, indices and sizes reach the package at any magnitude.  Python refuses
to write an int of more than 4300 digits by default, so a guard that wrote
its argument raised a bare `ValueError` in place of its own error, and a
guard that echoed a word wrote all of it.
"""

import sys

import pytest

from motzkin import oracle, sequences, weights
from motzkin.errors import (
    MAX_SHOWN_CHARS,
    DomainViolationError,
    NotCanonicalError,
    RangeTooLargeError,
    shown,
)
from motzkin.word_model import parse

BIG = 10**5000  # out of every guard's domain below: never pass it where it is in one
LONG_WORD = "0" + "()" * 5000  # 10 001 symbols, not canonical


@pytest.fixture
def default_digit_limit():
    """Python's own int-to-str digit limit, whatever the test run set; restored after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value, expected", [
    (0, "0"),
    (-1, "-1"),
    (10**80 - 1, "9" * 80),
    (-(10**79 - 1), "-" + "9" * 79),
    (10**80, "an integer of more than 80 characters"),
    (-10**79, "an integer of more than 80 characters"),
    (BIG, "an integer of more than 80 characters"),
    (-BIG, "an integer of more than 80 characters"),
    ("", "''"),
    ("0()", "'0()'"),
    ("x" * 80, repr("x" * 80)),
    ("it's", repr("it's")),
    ("x" * 81, "a value of 81 characters"),
    (LONG_WORD, "a value of 10001 characters"),
], ids=["zero", "minus-one", "80-digits", "minus-79-digits", "81-digits", "minus-80-digits",
        "5001-digits", "minus-5001-digits", "empty-text", "short-text", "80-characters",
        "quoted-text", "81-characters", "10001-characters"])
def test_shown_writes_a_value_up_to_80_characters_and_names_a_longer_one(
        default_digit_limit, value, expected):
    assert MAX_SHOWN_CHARS == 80
    assert shown(value) == expected


@pytest.mark.parametrize("call, error", [
    (lambda: sequences.completions(-BIG, 0), DomainViolationError),
    (lambda: sequences.completions(0, -BIG), DomainViolationError),
    (lambda: sequences.motzkin_number(-BIG), DomainViolationError),
    (lambda: sequences.unique_count(-BIG), DomainViolationError),
    (lambda: sequences.delta(-BIG), DomainViolationError),
    (lambda: sequences.delta_prime(-BIG), DomainViolationError),
    (lambda: weights.pair_nest_weight(1, BIG, 0), DomainViolationError),
    (lambda: weights.pair_nest_weight(BIG, 1, -BIG), DomainViolationError),
    (lambda: weights.pair_weight(1, BIG), DomainViolationError),
    (lambda: weights.pair_catalog_index(1, BIG), DomainViolationError),
    (lambda: weights.prime_pair_word(1, BIG), DomainViolationError),
    (lambda: weights.range_extrema(-BIG), DomainViolationError),
    (lambda: weights.unrank(-BIG), DomainViolationError),
    (lambda: weights.compose(-BIG, []), DomainViolationError),
    (lambda: weights.compose(BIG, []), RangeTooLargeError),
    (lambda: weights.compose(6, [(BIG, 2)]), DomainViolationError),
    (lambda: weights.compose(6, [(1, -BIG)]), DomainViolationError),
    (lambda: oracle.completions(-BIG, 0), DomainViolationError),
    (lambda: oracle.completions(0, -BIG), DomainViolationError),
    (lambda: oracle.enumerate_range(-BIG), DomainViolationError),
    (lambda: oracle.enumerate_range(BIG), RangeTooLargeError),
    # the word guards: `_weigh`, behind `rank` and `decompose`, and the oracle's rank
    (lambda: weights.rank(parse(LONG_WORD)), NotCanonicalError),
    (lambda: weights.decompose(parse(LONG_WORD)), NotCanonicalError),
    (lambda: oracle.rank_by_counting(parse(LONG_WORD)), NotCanonicalError),
], ids=[
    "sequences.completions-remaining", "sequences.completions-height",
    "sequences.motzkin_number", "sequences.unique_count", "sequences.delta",
    "sequences.delta_prime", "weights.pair_nest_weight-k", "weights.pair_nest_weight-s",
    "weights.pair_weight", "weights.pair_catalog_index", "weights.prime_pair_word",
    "weights.range_extrema", "weights.unrank", "weights.compose-negative",
    "weights.compose-over", "weights.compose-span-open", "weights.compose-span-close",
    "oracle.completions-remaining", "oracle.completions-height",
    "oracle.enumerate_range-negative", "oracle.enumerate_range-over",
    "weights.rank", "weights.decompose", "oracle.rank_by_counting",
])
def test_every_guard_refuses_a_huge_value_with_its_own_short_error(
        default_digit_limit, call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert len(str(exc.value)) < 200
