"""Frozen answers: `rank`, `decompose` and `unrank` of 200 fixed words, and
the completion table they leave, each summed up in one SHA-256 digest.

The words come from this module's own `random.Random` and the stdlib alone,
so they move only if this file does: 196 canonical words of 2 to 3000
symbols, each symbol picked uniformly among those after which the word can
still close, then ()^700, (^700 )^700, (^1500 )^1500 and ()^2500.  `run`
builds each with `Word(text)`, so `parse`'s memo plays no part, and calls
`rank`, `decompose` and `unrank` of that rank, in that order, on one table
that starts empty.  It ends with `sequences.completions(1100, 60)` and
`weights.pair_nest_weight(300, 200, 10)`, which grow whatever row and
column they are asked for.

The answers digest covers each call's answer: the rank in hex, every
`decompose` entry and the `unrank` text.  The table digest covers each
column's length after the whole run.  `python tests/frozen_answers.py`, with
`motzkin` importable (`PYTHONPATH=src`), prints both on the shipped path.
"""

import hashlib
import random

from motzkin import sequences, weights
from motzkin.word_model import Word

CALLS = ("rank", "decompose", "unrank")
DEEPEST = "(" * 1500 + ")" * 1500  # left out at cap inf, where it would grow about 1500 columns


def _random_word(rng: random.Random, n: int) -> str:
    """A canonical word of n >= 2 symbols: '(' first, then each symbol picked
    uniformly among those after which the word can still close."""
    symbols, height = ["("], 1
    for left in range(n - 2, -1, -1):
        options = [(symbol, h) for symbol, h in (("0", height), ("(", height + 1),
                                                 (")", height - 1)) if 0 <= h <= left]
        symbol, height = rng.choice(options)
        symbols.append(symbol)
    return "".join(symbols)


def frozen_words() -> list[str]:
    """The 200 distinct word texts, in the order `run` takes them."""
    rng = random.Random(2019)
    texts: dict[str, None] = {}
    while len(texts) < 196:
        texts[_random_word(rng, rng.randint(2, 3000))] = None
    return [*texts, "()" * 700, "(" * 700 + ")" * 700, DEEPEST, "()" * 2500]


def _fingerprint(answer: bytes) -> str:
    return hashlib.sha256(answer).hexdigest()


def _entry_bytes(n: int, k: int, depth: int, contribution: int) -> bytes:
    """A `decompose` entry as bytes: n, k, depth and the contribution's bit
    length in decimal, then the contribution's own bytes, which are several
    times quicker to make than its hex."""
    bits = contribution.bit_length()
    return b"%d %d %d %d:" % (n, k, depth, bits) + contribution.to_bytes((bits + 7) // 8, "little")


def run(texts: list[str]) -> tuple[list[tuple[str, str, str]], list[int]]:
    """For each text, the fingerprints of its answers to `CALLS`, and each
    column's length after the run.  The run starts from an empty table and
    puts the caller's table back when it ends."""
    saved, sequences._columns = sequences._columns, [[1, 1]]
    try:
        records = []
        for text in texts:
            w = Word(text)
            r = weights.rank(w)
            d = weights.decompose(w)
            entries = b"".join([_entry_bytes(*entry) for entry in d.entries])
            records.append((_fingerprint(b"%x" % r),
                            _fingerprint(b"%d %x;" % (d.word_length, d.total) + entries),
                            _fingerprint(weights.unrank(r).text.encode())))
        sequences.completions(1100, 60)
        weights.pair_nest_weight(300, 200, 10)
        return records, [len(column) for column in sequences._columns]
    finally:
        sequences._columns = saved


def answers_digest(records: list[tuple[str, str, str]]) -> str:
    return _fingerprint("".join(" ".join(record) + "\n" for record in records).encode())


def table_digest(lengths: list[int]) -> str:
    return _fingerprint(" ".join(map(str, lengths)).encode())


def first_difference(texts: list[str], a: list[tuple[str, str, str]],
                     b: list[tuple[str, str, str]]) -> str | None:
    """The first word and call where two runs over the same texts differ, or None."""
    for i, (text, x, y) in enumerate(zip(texts, a, b, strict=True)):
        for call, p, q in zip(CALLS, x, y):
            if p != q:
                shown = repr(text) if len(text) <= 40 else f"{text[:30]!r}... of {len(text)} symbols"
                return f"{call} differs on word {i}, {shown}"
    return None


if __name__ == "__main__":
    records, lengths = run(frozen_words())
    print(f"answers {answers_digest(records)}")
    print(f"table   {table_digest(lengths)}")
