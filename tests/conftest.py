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
def empty_table(monkeypatch):
    """The completion table as a fresh process starts it; the old one comes back after."""
    monkeypatch.setattr(sequences, "_columns", [[1, 1]])


@pytest.fixture
def empty_store(monkeypatch):
    """`parse`'s remembered text as a fresh process starts it (none), for tests
    that count checks or matchings; the old one comes back after."""
    monkeypatch.setattr(word_model, "_last", (object(), None, None))


@pytest.fixture
def force_cap(monkeypatch):
    """Sets the cap, the lowest column a call walks from instead of reading,
    whatever the word's length.  math.inf never walks.  0 walks every `rank`
    and `decompose` from the first symbol, but `unrank` only from its first
    '(' count that the table lacks: from the first symbol on an empty table."""
    def force(cap):
        monkeypatch.setattr(weights, "_cap", lambda length: cap)

    return force
