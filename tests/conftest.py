import pytest

from motzkin import oracle, sequences, weights


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
def empty_table(monkeypatch):
    """The completion table as a fresh process starts it; the old one comes back after."""
    monkeypatch.setattr(sequences, "_columns", [[1, 1]])


@pytest.fixture
def force_cap(monkeypatch):
    """Sets the column from which every call walks, whatever the word's length:
    0 walks every word from its first symbol, math.inf never walks."""
    def force(cap):
        monkeypatch.setattr(weights, "_cap", lambda length: cap)

    return force
