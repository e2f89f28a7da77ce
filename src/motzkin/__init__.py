"""Ordered Motzkin words: ranking, prime-pair weights, word arithmetic.

The formula side is `sequences`, `weights` and `pair_arith`; `oracle`
referees it, and `checks.run_checks`, behind ``motzkin verify``, pits one
against the other.
"""

from . import checks, errors, oracle, pair_arith, sequences, weights, word_model
from .errors import MotzkinError
from .word_model import Word, parse

__version__ = "0.1.0"

__all__ = [
    "MotzkinError",
    "Word",
    "checks",
    "errors",
    "oracle",
    "pair_arith",
    "parse",
    "sequences",
    "weights",
    "word_model",
]
