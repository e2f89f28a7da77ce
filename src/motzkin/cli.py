"""Command-line surface: parse arguments, call the library, print.

A handler only prints; `main` owns every exit.  It returns 0 once stdout is
flushed, argparse exits 2 on a usage error, a `MotzkinError` (a failed
`verify` among them) or a `MemoryError` is one `error:` line on stderr and
exit 1, a closed stdout pipe exits 1 silently, and Ctrl-C prints
`error: interrupted` and exits 130 (tests/test_cli.py and
tests/test_cli_process.py assert each).  That holds from this module's
import by `python -m motzkin` on; a Ctrl-C during interpreter start-up or
the package's own import is Python's.  An integer argument is read up to
`MAX_INTEGER_CHARS`, the longest value `errors.shown` writes in full, and the
`unrank` index up to `MAX_INDEX_DIGITS`."""

import argparse
import json
import os
import sys

from . import checks, oracle, pair_arith, sequences, weights, word_model
# The longest text of an integer argument is the longest value a message shows.
from .errors import MAX_SHOWN_CHARS as MAX_INTEGER_CHARS, MotzkinError, shown
from .weights import MAX_COMPOSE_LENGTH

# Table cell for derivative orders a pair cannot reach (k <= s).
DASH = "–"

# Largest `seq --upto` and `table --max-n`: each bounds the time of one call,
# which grows faster than linearly in it.
MAX_SEQ_UPTO = 10_000
MAX_TABLE_N = 300

# Longest `unrank` index: more digits than any rank `rank` prints for a word that
# fits in one Linux argument, as
# tests/test_cli.py::test_unrank_index_past_the_int_str_limit_names_the_limit asserts.
MAX_INDEX_DIGITS = 65_536

_SEQUENCES = {
    "motzkin": (0, sequences.motzkin_number),
    "unique": (1, sequences.unique_count),
    "delta": (1, sequences.delta),
    "delta-prime": (2, sequences.delta_prime),
}


def _integer(maximum: int | None = None, longest: int = MAX_INTEGER_CHARS):
    """The argument type of every integer argument.  Text over `longest`
    characters, or a value over `maximum`, is a usage error."""
    def read(text: str) -> int:
        if len(text) > longest:
            raise argparse.ArgumentTypeError(
                f"a value of {len(text)} characters is over the {longest}-character limit")
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"{shown(value)} is over the maximum of {maximum}")
        return value
    return read


def _parse_pair(text: str) -> tuple[int, int]:
    halves = text.split(",")
    if len(halves) != 2:
        raise argparse.ArgumentTypeError(
            f"expected open,close positions like 3,7 (got {shown(text)})")
    return tuple(map(_integer(), halves))


def _cmd_rank(args) -> None:
    print(weights.rank(word_model.parse(args.word)))


def _cmd_unrank(args) -> None:
    print(weights.unrank(args.index))


def _cmd_decompose(args) -> None:
    d = weights.decompose(word_model.parse(args.word))
    if args.json:
        print(json.dumps({"length": d.word_length,
                          "pairs": [e._asdict() for e in d.entries], "total": d.total}))
    else:
        for e in d.entries:
            print(f"{e.n} {e.k} {e.depth} {e.contribution}")
        print(f"total {d.total}")


def _cmd_compose(args) -> None:
    print(weights.compose(args.length, args.pair))


def _cmd_arith(args) -> None:  # `add` and `sub`: `op` is `padd` or `psub`
    print(args.op(word_model.parse(args.x), word_model.parse(args.y)))


def _cmd_seq(args) -> None:
    first, fn = _SEQUENCES[args.name]
    for i in range(first, args.upto + 1):
        print(fn(i))


def _cmd_enumerate(args) -> None:
    for w in oracle.enumerate_range(args.length):
        print(w)


def _cmd_table(args) -> None:
    print("\t".join(["no", "n/k", "word", "M_k", "wt", "wt'", "wt''",
                     "wt'''", "wt^iv", "wt^v"]))
    for n in range(2, args.max_n + 1):
        for k in range(1, n):
            cells = [
                str(weights.pair_catalog_index(n, k)),
                f"{n}/{k}",
                str(weights.prime_pair_word(n, k)),
                str(sequences.motzkin_number(k)),
            ]
            cells += [str(weights.pair_nest_weight(n, k, s)) if s < k else DASH
                      for s in range(6)]
            print("\t".join(cells))


def _cmd_verify(args) -> None:
    results = checks.run_checks(args.max_len)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})")
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise MotzkinError(f"{len(failed)} of {len(results)} checks failed: {', '.join(failed)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motzkin",
        description="Arithmetic of ordered Motzkin words: ranks, prime-pair "
                    "decomposition, nest-weights, and a brute-force verifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="print the rank of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("unrank", help="print the word with the given rank")
    p.add_argument("index", type=_integer(longest=MAX_INDEX_DIGITS))
    p.set_defaults(func=_cmd_unrank)

    p = sub.add_parser("decompose", help="list the prime pairs of a word")
    p.add_argument("word")
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("compose", help="rebuild a word from pair positions")
    p.add_argument("--length", type=_integer(MAX_COMPOSE_LENGTH), required=True,
                   help=f"word length (at most {MAX_COMPOSE_LENGTH})")
    p.add_argument("--pair", type=_parse_pair, action="append", default=[],
                   metavar="OPEN,CLOSE", help="may be repeated")
    p.set_defaults(func=_cmd_compose)

    for name, op, text in (("add", pair_arith.padd, "partial addition of two words"),
                           ("sub", pair_arith.psub, "partial subtraction of two words")):
        p = sub.add_parser(name, help=text)
        p.add_argument("x")
        p.add_argument("y")
        p.set_defaults(func=_cmd_arith, op=op)

    p = sub.add_parser("seq", help="print an integer sequence, one value per line")
    p.add_argument("name", choices=sorted(_SEQUENCES))
    p.add_argument("--upto", type=_integer(MAX_SEQ_UPTO), required=True,
                   help=f"last index to print (inclusive, at most {MAX_SEQ_UPTO})")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("enumerate", help="all canonical words of one length, in order")
    p.add_argument("--length", type=_integer(), required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="nest-weight table of all prime pairs up to a size")
    p.add_argument("--max-n", type=_integer(MAX_TABLE_N), required=True, dest="max_n",
                   help=f"largest pair size (at most {MAX_TABLE_N})")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="cross-check the formulas against brute force")
    p.add_argument("--max-len", type=_integer(), required=True, dest="max_len")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # `_integer` bounds what is read; results print exactly
        args = build_parser().parse_args(argv)
        try:
            args.func(args)
        finally:
            sys.stdout.flush()  # a pipe that closes before this flush is caught below too
    except BrokenPipeError:  # the reader left: print nothing, and keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except MotzkinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the table of a very deep word or a huge index outgrew memory
        print("error: out of memory", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
