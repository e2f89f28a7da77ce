"""One benchmark process: a fresh interpreter running one job against ./src.

run.py spawns it; it is not meant to be started by hand:

    python3 bench/worker.py WORKLOAD probe            # set-up only
    python3 bench/worker.py WORKLOAD run|trace|memory < job  # loop, then gate
    python3 bench/worker.py cli-cold answers < job    # in-process CLI answers

Set-up is the import of motzkin from this checkout's src/ (and, for
small-exhaustive, a warm-up of the tables); the process reports when it
was ready on the monotonic clock, which the parent shares.  `run` times
every operation; `trace` does the same under the per-module span tracer,
and `memory` under tracemalloc, which reports the live memory per module
at the end.  Answers are checked only after the loop (the gate), and one
JSON object goes to stdout.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
import motzkin  # noqa: E402

IMPORTED = time.monotonic()

import array  # noqa: E402
import base64  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import tracemalloc  # noqa: E402

from motzkin import checks, oracle, pair_arith, weights, word_model  # noqa: E402

# Rank additivity of a partial sum is checked when the sum is at most this
# long; longer sums would spend seconds growing the Motzkin numbers.
RANK_CHECK_MAX_LEN = 1100


class OverBudget(BaseException):
    """Raised by the wall-budget alarm; not an Exception, so no op swallows it."""


def _alarm(signum, frame):
    raise OverBudget


def arm(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))


def disarm():
    signal.setitimer(signal.ITIMER_REAL, 0)


def warm_up(words: list[str]):
    """Fill the tables small-exhaustive reads, so its timed loop grows none."""
    for text in words[::16] + words[-16:]:
        w = word_model.parse(text)
        r = weights.rank(w)
        weights.unrank(r)
        weights.decompose(w)
        oracle.rank_by_counting(w)


def _text(value):
    return value.text if isinstance(value, word_model.Word) else None


class Loop:
    """Closed loop over job items; each operation is timed on its own."""

    def __init__(self, counting: bool):
        self.counting = counting
        self.latency = array.array("q")
        self.planned = 0
        self.wall_ns = 0
        p = word_model.parse
        rank, unrank, decompose = weights.rank, weights.unrank, weights.decompose
        by_counting, padd, psub = oracle.rank_by_counting, pair_arith.padd, pair_arith.psub
        self.ops = {
            "rank": lambda text: rank(p(text)),
            "counting": lambda text: by_counting(p(text)),
            "unrank": unrank,
            "decompose": lambda text: decompose(p(text)),
            "padd": lambda x, y: padd(p(x), p(y)),
            "psub": lambda z, y: psub(z, p(y)),
        }

    def ops_per_item(self, item) -> int:
        return (4 if self.counting else 3) if item[0] == "w" else 2

    def run(self, items) -> list:
        """Run items in order; returns one record per item that finished.

        A record keeps only what the gate compares, so that the records do
        not grow the heap the collector walks during the timed loop.
        """
        clock = time.perf_counter_ns
        lat = self.latency
        ops = self.ops

        def timed(fn, *args):
            start = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # a failed operation is a result to count
                out = exc
            lat.append(clock() - start)
            return out

        records = []
        self.planned += sum(self.ops_per_item(item) for item in items)
        start = clock()
        try:
            for item in items:
                if item[0] == "w":
                    text = item[1]
                    r = timed(ops["rank"], text)
                    c = timed(ops["counting"], text) if self.counting else None
                    u = timed(ops["unrank"], r)
                    d = timed(ops["decompose"], text)
                    records.append((item, r, c, _text(u), getattr(d, "total", None)))
                else:
                    _, x, y, _merged = item
                    z = timed(ops["padd"], x, y)
                    back = timed(ops["psub"], z, y)
                    records.append((item, _text(z), _text(back)))
        finally:
            self.wall_ns += clock() - start
        return records


def check(records, counting: bool, expected_rank=None) -> int:
    """Failed operations among finished records; untimed, after the loop.

    A word's rank must match the oracle's count (or its known position),
    unrank must give the word back, and the decomposition must total the
    rank.  A partial sum must be the symbol-wise merge, psub must undo it,
    and short sums must add ranks.
    """
    failed = 0
    for pos, record in enumerate(records):
        item = record[0]
        if item[0] == "w":
            _, r, c, unranked, total = record
            text = item[1]
            truth = (expected_rank(pos) if expected_rank
                     else oracle.rank_by_counting(word_model.parse(text)))
            failed += r != truth
            if counting:
                failed += c != truth
            failed += unranked != text
            failed += total != truth
        else:
            _, z, back = record
            _, x, y, merged = item
            ok = z == merged.lstrip("0")
            if ok and len(merged) <= RANK_CHECK_MAX_LEN:
                p = word_model.parse
                ok = weights.rank(p(z)) == weights.rank(p(x)) + weights.rank(p(y))
            failed += not ok
            failed += back != x
    return failed


def cli_answers(requests) -> list:
    """The in-process answer to each CLI request, and whether it is right."""
    p = word_model.parse
    answers = []
    for req in requests:
        op, args = req[0], req[1:]
        try:
            if op == "rank":
                w = p(args[0])
                r = weights.rank(w)
                ok = (r == oracle.rank_by_counting(w) and weights.unrank(r) == w
                      and weights.decompose(w).total == r)
                expect = str(r)
            elif op == "decompose":
                d = weights.decompose(p(args[0]))
                ok = d.total == weights.rank(p(args[0]))
                expect = {"length": d.word_length, "total": d.total,
                          "pairs": [{"n": e.n, "k": e.k, "depth": e.depth,
                                     "contribution": e.contribution} for e in d.entries]}
            elif op == "unrank":
                expect = weights.unrank(int(args[0])).text
                ok = expect == args[1]
            elif op == "add":
                x, y, merged = args
                z = pair_arith.padd(p(x), p(y))
                ok = z.text == merged.lstrip("0") and pair_arith.psub(z, p(y)).text == x
                if ok and len(merged) <= RANK_CHECK_MAX_LEN:
                    ok = weights.rank(z) == weights.rank(p(x)) + weights.rank(p(y))
                expect = z.text
            elif op == "sub":
                z, y, x = args
                expect = pair_arith.psub(p(z), p(y)).text
                ok = expect == x
            else:
                ok = all(result.passed for result in checks.run_checks(int(args[0])))
                expect = True
        except Exception as exc:  # the request fails; the others are still checked
            ok, expect = False, repr(exc)
        answers.append([ok, expect])
    return answers


def main(argv) -> int:
    workload, mode = argv
    package = Path(motzkin.__file__).resolve().parent
    if package != SRC.resolve() / "motzkin":
        print(f"motzkin imported from {package}, not from {SRC}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGALRM, _alarm)
    job = json.load(sys.stdin)
    if mode == "memory":
        tracemalloc.start()
    warm_start = time.monotonic()
    if workload == "small-exhaustive":
        warm_up(job["warmup"])
    setup = {"imported": IMPORTED, "warmup_s": time.monotonic() - warm_start}
    if mode == "probe":
        print(json.dumps(setup))
        return 0
    arm(job["budget_s"])
    if mode == "answers":
        try:
            answers = cli_answers(job["requests"])
        except OverBudget:
            answers = []
        disarm()
        print(json.dumps({**setup, "answers": answers}))
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    counting = workload == "small-exhaustive"
    loop = Loop(counting)
    items = job["items"]
    ranked = (lambda pos: pos) if job.get("ranked") else None
    failed = passes = peak_rss_kb = 0
    stop = time.monotonic() + job["seconds"]
    try:
        while passes < job["passes"] and time.monotonic() < stop:
            records = loop.run(items)
            passes += 1
            if passes == 1:
                # later passes grow only the benchmark's latency array
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if tracer is not None:
                tracer.uninstall()
            failed += check(records, counting, expected_rank=ranked)
    except OverBudget:
        peak_rss_kb = peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed = loop.planned
    disarm()
    if tracer is not None:
        tracer.uninstall()
    records = None
    trace = None
    if tracer is not None:
        trace = tracer.summary()
    if mode == "memory":
        from spans import live_kib
        trace = {"live_kib": live_kib(package)}
    print(json.dumps({
        **setup,
        "attempted": loop.planned,
        "failed": failed,
        "passes": passes,
        "wall_s": loop.wall_ns / 1e9,
        "peak_rss_kb": peak_rss_kb,
        "latency_ns": base64.b64encode(loop.latency.tobytes()).decode(),
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
