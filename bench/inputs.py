"""Seeded benchmark inputs, built without the motzkin package.

Every word and operand pair here comes from this file's own generators:
flat words (top-level pairs only), deep words (one nest of given depth),
uniformly random canonical words drawn through an own completion-count
table, and block-disjoint operand pairs for partial addition.  The same
seed always yields the same inputs; `digest` fingerprints them so two runs
can be shown to have used identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random


class CompletionTable:
    """C(r, h): length-r suffixes over {0, (, )} that close h open pairs."""

    def __init__(self):
        self.rows = [[1]]

    def __call__(self, remaining: int, height: int) -> int:
        if height > remaining:
            return 0
        rows = self.rows
        while len(rows) <= remaining:
            r = len(rows)
            prev = rows[-1]
            rows.append([(prev[h - 1] if h else 0) + (prev[h] if h < r else 0)
                         + (prev[h + 1] if h + 1 < r else 0) for h in range(r + 1)])
        return rows[remaining][height]


def random_word(rng: random.Random, table: CompletionTable, length: int) -> str:
    """A canonical word drawn uniformly among all canonical words of `length`."""
    if length == 1:
        return "0"
    out = ["("]
    height = 1
    for pos in range(1, length):
        left = length - pos - 1
        zero, up = table(left, height), table(left, height + 1)
        down = table(left, height - 1) if height else 0
        pick = rng.randrange(zero + up + down)
        if pick < zero:
            out.append("0")
        elif pick < zero + up:
            out.append("(")
            height += 1
        else:
            out.append(")")
            height -= 1
    return "".join(out)


def flat_word(rng: random.Random, length: int) -> str:
    """Top-level pairs `()` with seeded zeros between them; depth 0 only."""
    pairs = max(1, length // 3)
    tokens = ["()"] * (pairs - 1) + ["0"] * (length - 2 * pairs)
    rng.shuffle(tokens)
    return "()" + "".join(tokens)


def deep_word(rng: random.Random, length: int, depth: int) -> str:
    """`depth` nested pairs with the spare zeros scattered inside the nest."""
    gaps = [0] * (2 * depth)
    for _ in range(length - 2 * depth):
        gaps[rng.randrange(2 * depth - 1)] += 1
    brackets = "(" * depth + ")" * depth
    return "".join(b + "0" * g for b, g in zip(brackets, gaps))


def rank_by_counting(table: CompletionTable, word: str) -> int:
    """Rank of a canonical word: how many canonical words precede it."""
    if word == "0":
        return 0
    n = len(word)
    rank = table(n - 1, 0)
    height = 1
    for pos in range(1, n):
        left = n - pos - 1
        char = word[pos]
        if char != "0":
            rank += table(left, height)
        if char == ")":
            rank += table(left, height + 1)
            height -= 1
        elif char == "(":
            height += 1
    return rank


BLOCKS = ("()", "(0)", "(())", "()0", "(0)0", "(()0)", "(00)")


def block_pair(rng: random.Random, blocks_x: int, blocks_y: int) -> tuple[str, str, str]:
    """Operands whose top-level blocks occupy disjoint intervals.

    Returns canonical x and y plus their merge, the right-aligned
    symbol-wise union that partial addition must produce.
    """
    owners = [0] * blocks_x + [1] * blocks_y
    rng.shuffle(owners)
    x, y = [], []
    for owner in owners:
        block = rng.choice(BLOCKS)
        blank = "0" * len(block)
        x.append(blank if owner else block)
        y.append(block if owner else blank)
    merged = "".join(a if a[0] != "0" else b for a, b in zip(x, y))
    return "".join(x).lstrip("0"), "".join(y).lstrip("0"), merged


def canonical_words(max_len: int) -> list[str]:
    """Every canonical word of length <= max_len, in rank order."""
    words = ["0"]
    for n in range(2, max_len + 1):
        def extend(prefix: str, height: int):
            left = n - len(prefix)
            if left == 0:
                words.append(prefix)
                return
            if height < left:
                extend(prefix + "0", height)
            if height + 1 < left:
                extend(prefix + "(", height + 1)
            if height:
                extend(prefix + ")", height - 1)
        extend("(", 1)
    return words


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of `obj`."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
