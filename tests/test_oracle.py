import contextlib
import itertools
import sys
import threading
import types

import pytest

from motzkin import oracle, sequences
from motzkin.errors import DomainViolationError, RangeTooLargeError


def test_enumerate_sizes_match_unique_counts():
    for n in range(1, 15):
        assert len(oracle.enumerate_range(n)) == sequences.unique_count(n)


# a length the guards admit gets as far as its first word, here a call of None
@pytest.mark.parametrize("n, error", [(0, DomainViolationError), (1, TypeError),
                                      (oracle.MAX_ENUM_LENGTH, TypeError),
                                      (oracle.MAX_ENUM_LENGTH + 1, RangeTooLargeError)])
def test_enumerate_guards(monkeypatch, n, error):
    monkeypatch.setattr(oracle, "Word", None)
    with pytest.raises(error):
        oracle.enumerate_range(n)


@pytest.mark.parametrize("r", range(8))
def test_completions_match_exhaustive_counting(r):
    for h in range(5):
        count = 0
        for candidate in itertools.product("0()", repeat=r):
            balance = h
            for char in candidate:
                balance += 1 if char == "(" else (-1 if char == ")" else 0)
                if balance < 0:
                    break
            else:
                if balance == 0:
                    count += 1
        assert oracle.completions(r, h) == count


def test_completions_rejects_negative_arguments():
    with pytest.raises(DomainViolationError):
        oracle.completions(-1, 0)
    with pytest.raises(DomainViolationError):
        oracle.completions(3, -2)


def test_concurrent_oracle_growth_neither_duplicates_nor_skips_rows(monkeypatch, race):
    monkeypatch.setattr(oracle, "_completion_rows", [[1]])
    top = 300

    def grow(_):
        for r in (*range(0, top, 7), top):
            oracle.completions(r, r // 3)

    race(grow, range(8))
    grown = oracle._completion_rows  # threads that passed the length check late add a few rows
    assert len(grown) > top
    monkeypatch.setattr(oracle, "_completion_rows", [[1]])
    oracle.completions(len(grown) - 1, 0)  # the same rows, grown by one thread
    assert grown == oracle._completion_rows


def test_two_threads_that_build_one_row_at_once_store_it_once(monkeypatch, race):
    both_built = threading.Barrier(2, timeout=30)

    class Rows(list):
        def __setitem__(self, index, value):
            if isinstance(index, slice):  # a row's store waits until both threads built it
                both_built.wait()
            super().__setitem__(index, value)

    monkeypatch.setattr(oracle, "_completion_rows", Rows([[1]]))
    race(lambda _: oracle.completions(1, 0), range(2))
    assert oracle._completion_rows == [[1], [1, 1]]


def _poisoned_module(name: str) -> types.ModuleType:
    module = types.ModuleType(name)

    def refuse(attr, _name=name):
        raise AssertionError(f"oracle must stay independent of {_name} (touched .{attr})")

    module.__getattr__ = refuse
    return module


@contextlib.contextmanager
def _fresh_package(*poisoned: str):
    """Re-import the package from scratch with the named modules stubbed out."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "motzkin" or name.startswith("motzkin.")}
    for name in saved:
        del sys.modules[name]
    for name in poisoned:
        sys.modules[name] = _poisoned_module(name)
    try:
        yield
    finally:
        for name in [n for n in sys.modules
                     if n == "motzkin" or n.startswith("motzkin.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_oracle_is_independent_of_the_formula_modules():
    """Reimport the oracle with the formula modules stubbed out: it must
    keep working, proving it never calls into them."""
    with _fresh_package("motzkin.weights", "motzkin.sequences"):
        import motzkin.oracle as fresh

        words = fresh.enumerate_range(8)
        assert len(words) == 196
        assert fresh.completions(12, 0) == 15511
        assert fresh.rank_by_counting(words[0]) == 127
        assert fresh.rank_by_counting(words[-1]) == 322


def test_formula_modules_are_independent_of_the_oracle():
    """The converse: with the oracle stubbed out, ranking, unranking and
    decomposition still work, so the referee never feeds the formulas."""
    with _fresh_package("motzkin.oracle"):
        import motzkin.weights as fresh
        from motzkin.word_model import parse

        w = parse("((00)0(0()))")
        assert fresh.rank(w) == 9763
        assert fresh.unrank(9763) == w
        assert [(e.n, e.k, e.depth) for e in fresh.decompose(w).entries] == [
            (12, 1, 0), (11, 8, 1), (6, 2, 1), (4, 3, 2)]
