"""Random canonical words of hundreds of symbols, for the Hypothesis properties."""

from hypothesis import strategies as st


def canonical_text(picks):
    """A balanced canonical word as long as picks: '(' first, then any
    symbol after which the word can still close, chosen by the pick."""
    n = len(picks)
    symbols, height = ["("], 1
    for pos in range(1, n):
        left = n - pos - 1
        options = [(sym, h) for sym, h in (("0", height), ("(", height + 1), (")", height - 1))
                   if 0 <= h <= left]
        sym, height = options[picks[pos] % len(options)]
        symbols.append(sym)
    return "".join(symbols)


def canonical_texts(min_len=100, max_len=1000):
    """Canonical word texts of min_len to max_len symbols (min_len >= 2)."""
    return (st.integers(min_value=min_len, max_value=max_len)
            .flatmap(lambda n: st.binary(min_size=n, max_size=n))
            .map(canonical_text))
