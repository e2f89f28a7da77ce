"""Tier-1's one closable-word rule, `closable_word`, and the random canonical
words drawn by it: the Hypothesis properties', `word_texts` of
`test_word_model.py` and the frozen words of `frozen_answers`."""

from hypothesis import strategies as st


def closable_word(n, pick):
    """A word of n symbols: '(' first, then each symbol one of those, in the
    order '0', '(', ')', after which the word can still close, the one at
    index `pick(count)` of the `count` there are.  Canonical for n >= 2."""
    symbols, height = ["("], 1
    for left in range(n - 2, -1, -1):
        options = [(symbol, h) for symbol, h in (("0", height), ("(", height + 1),
                                                 (")", height - 1)) if 0 <= h <= left]
        symbol, height = options[pick(len(options))]
        symbols.append(symbol)
    return "".join(symbols)


def canonical_text(picks):
    """The closable word as long as picks, `picks[pos] % count` choosing the
    symbol at each position after the first."""
    later = iter(picks[1:])
    return closable_word(len(picks), lambda count: next(later) % count)


def canonical_texts(min_len=100, max_len=1000):
    """Canonical word texts of min_len to max_len symbols (min_len >= 2)."""
    return (st.integers(min_value=min_len, max_value=max_len)
            .flatmap(lambda n: st.binary(min_size=n, max_size=n))
            .map(canonical_text))
