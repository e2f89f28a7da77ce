"""The benchmark's tracer contract, checked with the unit tests.

`bench/spans.py` times each layer by rebinding public functions by name.
`bench/selftest.py` pins what that needs of the package: `weights` and
`pair_arith` import `matched_pairs`, the one pair matcher, by name, on the
table path every pair weight goes through the global name
`pair_nest_weight` (a walked word, one too deep for its length's column cap,
makes no such call), and one `padd` and one `psub` count exactly two
`pair_arith` calls, so neither calls another public `pair_arith` function
through a name the tracer rebinds.  Two of its checks run here in-process,
so a change that breaks the contract fails the unit tests, not only the
benchmark's own smoke run.  A third checks that `rank` and `decompose`
match a word's pairs through the rebound name, so the matcher the tracer
times is the one every weight is read from.
"""

import importlib
from pathlib import Path

import pytest

from motzkin import parse, weights

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def selftest(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("selftest")


def test_traced_self_times_stay_within_span_durations(selftest, empty_store):
    # the smoke run counts `Word` checks, so its words must not be in `parse`'s store
    selftest.test_self_times_within_span_durations()


def test_benchmark_gate_counts_injected_wrong_answers(selftest):
    selftest.test_gate_counts_injected_wrong_answers()


@pytest.mark.parametrize("text, walked", [
    ("((00)0(0()))", False),
    ("(" * 239 + ")" * 239, True),  # its depth reaches the column cap of its length
], ids=["table", "walked"])
def test_rank_and_decompose_match_pairs_once_through_the_global_name(monkeypatch, text, walked):
    matched, weighed = [], []
    match, weigh = weights.matched_pairs, weights.pair_nest_weight
    monkeypatch.setattr(weights, "matched_pairs", lambda w: matched.append(w) or match(w))
    monkeypatch.setattr(weights, "pair_nest_weight",
                        lambda n, k, s: weighed.append(n) or weigh(n, k, s))
    w = parse(text)
    for call in (weights.rank, weights.decompose):
        matched.clear()
        weighed.clear()
        call(w)
        assert matched == [w], call.__name__
        assert len(weighed) == (0 if walked else text.count("(")), call.__name__
