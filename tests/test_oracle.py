import contextlib
import itertools
import sys
import threading
import types

import pytest

from motzkin import oracle, sequences
from motzkin.errors import DomainViolationError, NotCanonicalError, RangeTooLargeError
from motzkin.word_model import parse


def test_enumerate_small_ranges():
    assert [str(w) for w in oracle.enumerate_range(1)] == ["0"]
    assert [str(w) for w in oracle.enumerate_range(2)] == ["()"]
    assert [str(w) for w in oracle.enumerate_range(3)] == ["(0)", "()0"]
    assert [str(w) for w in oracle.enumerate_range(4)] == [
        "(00)", "(0)0", "(())", "()00", "()()"]


def test_enumerate_sizes_match_unique_counts():
    for n in range(1, 15):
        assert len(oracle.enumerate_range(n)) == sequences.unique_count(n)


def test_enumerate_guards():
    with pytest.raises(DomainViolationError):
        oracle.enumerate_range(0)
    with pytest.raises(RangeTooLargeError):
        oracle.enumerate_range(oracle.MAX_ENUM_LENGTH + 1)


def test_completions_spot_values():
    assert oracle.completions(0, 0) == 1
    assert oracle.completions(3, 1) == 5
    assert oracle.completions(5, 5) == 1
    assert oracle.completions(4, 9) == 0


def test_completions_at_ground_level_are_motzkin_numbers():
    for n in range(21):
        assert oracle.completions(n, 0) == sequences.motzkin_number(n)


def test_completions_match_exhaustive_counting():
    for r in range(8):
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


def test_concurrent_oracle_growth_neither_duplicates_nor_skips_rows(monkeypatch):
    monkeypatch.setattr(oracle, "_completion_rows", [[1]])
    top = 300
    errors = []

    def grow():
        try:
            for r in (*range(0, top, 7), top):
                oracle.completions(r, r // 3)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=grow) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    grown = oracle._completion_rows  # threads that passed the length check late add a few rows
    assert len(grown) > top
    monkeypatch.setattr(oracle, "_completion_rows", [[1]])
    oracle.completions(len(grown) - 1, 0)  # the same rows, grown by one thread
    assert grown == oracle._completion_rows


@pytest.mark.parametrize("text, expected", [
    ("0", 0),
    ("()", 1),
    ("()()", 8),
    ("(0())0", 28),
    ("()0(0())0", 736),
])
def test_rank_by_counting_known_positions(text, expected):
    assert oracle.rank_by_counting(parse(text)) == expected


def test_rank_by_counting_rejects_leading_zeros():
    with pytest.raises(NotCanonicalError):
        oracle.rank_by_counting(parse("0()"))


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
