"""Tier-1's shared fixtures.  The other shared helpers are modules:
`child_python` starts the package in a child interpreter, `long_words` draws
canonical words by the one closable-word rule, and `frozen_answers` holds the
frozen words and their digests.
"""

import pytest

from motzkin import oracle, sequences, weights, word_model


@pytest.fixture(scope="session")
def words_through():
    """Concatenated lexicographic enumeration up to a length, cached per session."""
    cache = {}

    def get(max_len: int):
        if max_len not in cache:
            cache[max_len] = [w for n in range(1, max_len + 1)
                              for w in oracle.enumerate_range(n)]
        return cache[max_len]

    return get


@pytest.fixture
def fresh_state(monkeypatch):
    """The state a fresh process starts with: empty `sequences` and `oracle`
    tables and no text remembered by `parse`; the old state comes back after
    the test.  Returns the reset, for a Hypothesis test to start each example
    fresh too."""
    def reset():
        monkeypatch.setattr(sequences, "_columns", [[1, 1]])
        monkeypatch.setattr(oracle, "_completion_rows", [[1]])
        monkeypatch.setattr(word_model, "_last", (object(), None, None))

    reset()
    return reset


@pytest.fixture
def force_cap(monkeypatch):
    """Sets the cap, the lowest column a call walks from instead of reading,
    whatever the word's length.  math.inf never walks.  0 walks every `rank`
    and `decompose` from the first symbol, but `unrank` only from its first
    '(' count that the table lacks: from the first symbol on an empty table."""
    def force(cap):
        monkeypatch.setattr(weights, "_cap", lambda length: cap)

    return force


@pytest.fixture
def record(monkeypatch):
    """record(owner, name, project=None, patch=None) rebinds `owner.name` to a
    wrapper that calls it and returns the list of what each call passed: its
    arguments as a tuple, or `project(*arguments)`, taken at call time.  The
    name comes back after the test, or when `patch`, a MonkeyPatch to use
    instead of the test's own, undoes."""
    def start(owner, name, project=None, patch=None):
        calls, true = [], getattr(owner, name)

        def recorded(*args):
            calls.append(args if project is None else project(*args))
            return true(*args)

        (patch or monkeypatch).setattr(owner, name, recorded)
        return calls

    return start
