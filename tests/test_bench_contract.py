"""The benchmark's tracer contract, checked with the unit tests.

`bench/spans.py` times each layer by rebinding public functions by name.
`bench/selftest.py` pins what that needs of the package: `weights` and
`pair_arith` import `matched_pairs` by name, on the table path every pair
weight goes through the global name `pair_nest_weight` (a walked word, one
too deep for its length's column cap, makes no such call), and `pair_arith`
has exactly two public functions.  Two of its checks run here in-process, so a change
that breaks the contract fails the unit tests, not only the benchmark's
own smoke run.
"""

import importlib
from pathlib import Path

import pytest

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
