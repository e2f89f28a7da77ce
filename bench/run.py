"""Benchmark of the motzkin package: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package in ./src from
outside, through its public functions and its CLI, each run in fresh
interpreters so that the module tables start empty as they do for a user.

Workloads (single client, closed loop: the next operation is sent only
after the previous one returned):

  cli-cold          every request is a fresh `python -m motzkin` process:
                    rank, decompose --json and unrank of flat, deep and
                    random words of length 10, 100 and 1000, add and sub of
                    block-disjoint operands, and verify --max-len 10.
  stream-large      a stream of distinct words of length 200..1000 (rank,
                    unrank, decompose) with padd/psub of 100..800-block
                    operands, in episodes of one fresh process each.
  small-exhaustive  every canonical word of length <= 12 (rank, oracle
                    rank_by_counting, unrank, decompose) and small padd/psub,
                    in one process whose tables are warmed during set-up.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it runs one unit of the same work (one cycle, episode or
pass) untraced, under the span tracer and under tracemalloc, and reports
the per-layer metrics.  Every
answer is checked after timing; a wrong answer, an exception, a non-zero
CLI exit or a traceback counts as a failed operation.  The last line of
stdout is the JSON result; the lines before it describe the run.
"""

from __future__ import annotations

import argparse
import array
import base64
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from spans import LAYERS

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
TRACED_CLI = BENCH / "traced_cli.py"

WORKLOADS = ("cli-cold", "stream-large", "small-exhaustive")

SETUP_PROBES = 9
GIB = 1 << 30
# Address-space limits, ten times the seed's peaks (about 0.09 GB per CLI
# request and 0.27 GB per stream-large episode), so a runaway table shows
# as failed operations instead of exhausting the machine.
REQUEST_MEMORY = 1 * GIB
WORKER_MEMORY = 3 * GIB
REQUEST_BUDGET_S = 30.0
WORKER_BUDGET_S = 90.0
# Everything, set-up and gate included, ends within this many seconds.
RUN_BUDGET_S = 170.0

SIZES = {
    "full": {
        "cli_lengths": (10, 100, 1000), "cli_deep_max": 100, "cli_blocks": (20, 150),
        "verify_len": 10,
        "stream_words": 48, "stream_lengths": (200, 1000),
        "stream_depths": (20, 40, 60, 80, 100, 120), "stream_blocks": (100, 200, 400, 800),
        "small_max_len": 12, "small_pairs": 1000,
    },
    "tiny": {
        "cli_lengths": (4, 10, 20), "cli_deep_max": 5, "cli_blocks": (2, 5),
        "verify_len": 5,
        "stream_words": 8, "stream_lengths": (20, 60),
        "stream_depths": (3, 8), "stream_blocks": (3, 6),
        "small_max_len": 6, "small_pairs": 20,
    },
}

START = time.monotonic()


def remaining() -> float:
    return RUN_BUDGET_S - (time.monotonic() - START)


def _limit_memory(nbytes: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))
    return apply


# ---------------------------------------------------------------- inputs

def cli_cycle(rng: random.Random, table: inputs.CompletionTable, size: dict) -> list:
    """One cycle of CLI requests; unrank asks for a rank counted here."""
    requests = []
    for length in size["cli_lengths"]:
        depth = min(size["cli_deep_max"], max(1, length // 4))
        for word in (inputs.flat_word(rng, length), inputs.deep_word(rng, length, depth),
                     inputs.random_word(rng, table, length)):
            rank = inputs.rank_by_counting(table, word)
            requests += [["rank", word], ["decompose", word], ["unrank", str(rank), word]]
    for blocks in size["cli_blocks"]:
        x, y, merged = inputs.block_pair(rng, blocks, blocks)
        requests += [["add", x, y, merged], ["sub", merged.lstrip("0"), y, x]]
    requests.append(["verify", str(size["verify_len"])])
    return requests


def stream_episode(rng: random.Random, table: inputs.CompletionTable, size: dict) -> list:
    """Distinct words stratified over the length range, with operand pairs
    spread evenly through the stream.  One word in eight is flat, one in
    eight deep (depths cycling through the listed ones), the rest uniform."""
    count = size["stream_words"]
    lo, hi = size["stream_lengths"]
    lengths = [int(lo + (hi - lo) * (j + rng.random()) / count) for j in range(count)]
    rng.shuffle(lengths)
    depths = size["stream_depths"]
    words = []
    for j, length in enumerate(lengths):
        if j % 8 == 0:
            words.append(inputs.flat_word(rng, length))
        elif j % 8 == 4:
            depth = depths[(j // 8) % len(depths)]
            words.append(inputs.deep_word(rng, max(length, 2 * depth + 2), depth))
        else:
            words.append(inputs.random_word(rng, table, length))
    pairs = [inputs.block_pair(rng, b, b) for b in size["stream_blocks"]]
    rng.shuffle(pairs)
    stride = count // len(pairs)
    items = []
    for j, word in enumerate(words):
        items.append(["w", word])
        if (j + 1) % stride == 0 and pairs:
            items.append(["p", *pairs.pop()])
    return items + [["p", *pair] for pair in pairs]


def small_job(rng: random.Random, size: dict) -> dict:
    """Every canonical word up to the maximal length, in rank order, plus
    pairs of small block-disjoint words."""
    words = inputs.canonical_words(size["small_max_len"])
    pairs = [inputs.block_pair(rng, rng.randint(1, 3), rng.randint(1, 3))
             for _ in range(size["small_pairs"])]
    items = [["w", w] for w in words] + [["p", *pair] for pair in pairs]
    return {"items": items, "warmup": words, "ranked": True}


# ---------------------------------------------------------------- processes

def worker(workload: str, mode: str, job: dict, budget_s: float = WORKER_BUDGET_S):
    """Run bench/worker.py in a fresh interpreter; None if it failed."""
    budget_s = min(budget_s, remaining() - 10)
    payload = json.dumps({**job, "budget_s": budget_s})
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, mode], input=payload,
            capture_output=True, text=True, cwd=ROOT, timeout=max(budget_s, 0) + 8,
            preexec_fn=_limit_memory(WORKER_MEMORY))
    except subprocess.TimeoutExpired:
        print(f"# worker {workload} {mode}: over its wall budget", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"# worker {workload} {mode} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(proc.stdout.splitlines()[-1])
    out["startup_s"] = out["imported"] - spawned
    out["setup_s"] = out["startup_s"] + out["warmup_s"]
    if "latency_ns" in out:
        out["latency_ns"] = array.array("q", base64.b64decode(out["latency_ns"])).tolist()
    return out


def setup_samples(workload: str, job: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        out = worker(workload, "probe", job, budget_s=REQUEST_BUDGET_S)
        if out is not None:
            samples.append(out["setup_s"])
    return samples


def cli_argv(req: list) -> list[str]:
    op = req[0]
    if op == "decompose":
        return ["decompose", "--json", req[1]]
    if op == "verify":
        return ["verify", "--max-len", req[1]]
    if op in ("add", "sub"):
        return [op, req[1], req[2]]
    return [op, req[1]]


def cli_request(req: list, mode: str = "plain"):
    """One request in a fresh process: (latency in ns, completed process or None).

    `plain` is `python -m motzkin`; `spans` and `memory` run the same
    request through traced_cli.py under the span tracer or tracemalloc.
    """
    if mode == "plain":
        cmd = [sys.executable, "-m", "motzkin", *cli_argv(req)]
    else:
        cmd = [sys.executable, str(TRACED_CLI), mode, *cli_argv(req)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    timeout = min(REQUEST_BUDGET_S, max(remaining() - 10, 1))
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=timeout, preexec_fn=_limit_memory(REQUEST_MEMORY))
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter_ns() - start, proc


def cli_ok(req: list, proc, answer) -> bool:
    """A request passes when it exited 0 without a traceback and printed the
    in-process answer, and that answer passed its own identity checks."""
    if proc is None or proc.returncode != 0 or "Traceback" in proc.stderr:
        return False
    ok, expect = answer
    if not ok:
        return False
    if req[0] == "decompose":
        try:
            return json.loads(proc.stdout) == expect
        except ValueError:
            return False
    if req[0] == "verify":
        return bool(proc.stdout.strip()) and "FAIL" not in proc.stdout
    return proc.stdout.strip() == expect


def cli_failures(requests: list, procs: list) -> int:
    out = worker("cli-cold", "answers", {"requests": requests})
    answers = out["answers"] if out else []
    answers += [[False, None]] * (len(requests) - len(answers))
    return sum(not cli_ok(req, proc, answer)
               for req, proc, answer in zip(requests, procs, answers))


# ---------------------------------------------------------------- statistics

def percentile(sorted_values: list, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest percentile that still has ten samples beyond it."""
    return 100 * (1 - 10 / samples) if samples > 20 else 50.0


class Run:
    """What one measured run collected."""

    def __init__(self):
        self.latency_ns: list[int] = []
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb: list[int] = []
        self.setup_s: list[float] = []
        self.units = 0
        self.inputs: list = []

    def add_worker(self, out, planned: int):
        if out is None:
            self.attempted += planned
            self.failed += planned
            return
        self.latency_ns += out["latency_ns"]
        self.wall_s += out["wall_s"]
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.peak_rss_kb.append(out["peak_rss_kb"])
        self.setup_s.append(out["setup_s"])


# ---------------------------------------------------------------- workloads

def measure(workload: str, seed: int, seconds: float, size: dict) -> Run:
    run = Run()
    table = inputs.CompletionTable()
    if workload == "cli-cold":
        run.setup_s = setup_samples(workload, {})
        requests, procs = [], []
        stop = time.monotonic() + seconds
        while time.monotonic() < stop and remaining() > 60:
            cycle = cli_cycle(random.Random(f"{seed}:cli-cold:{run.units}"), table, size)
            for req in cycle:
                latency, proc = cli_request(req)
                run.latency_ns.append(latency)
                run.wall_s += latency / 1e9
                procs.append(proc)
            requests += cycle
            run.units += 1
        run.peak_rss_kb.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        run.attempted = len(requests)
        run.failed = cli_failures(requests, procs)
        run.inputs = requests
    elif workload == "stream-large":
        run.setup_s = setup_samples(workload, {})
        stop = time.monotonic() + seconds
        while time.monotonic() < stop and remaining() > WORKER_BUDGET_S / 3:
            items = stream_episode(random.Random(f"{seed}:stream-large:{run.units}"),
                                   table, size)
            job = {"items": items, "passes": 1, "seconds": 1e9}
            run.add_worker(worker(workload, "run", job), planned=_planned(items, 3))
            run.inputs.append(items)
            run.units += 1
    else:
        job = small_job(random.Random(f"{seed}:small-exhaustive"), size)
        run.setup_s = setup_samples(workload, {"warmup": job["warmup"]})
        out = worker(workload, "run", {**job, "passes": 10 ** 9, "seconds": seconds})
        run.add_worker(out, planned=_planned(job["items"], 4))
        run.units = out["passes"] if out else 0
        run.inputs = job["items"]
    return run


def _planned(items: list, word_ops: int) -> int:
    return sum(word_ops if item[0] == "w" else 2 for item in items)


def end_to_end(run: Run) -> tuple[dict, dict]:
    lat_ms = sorted(ns / 1e6 for ns in run.latency_ns)
    tail = tail_percentile(len(lat_ms))
    metrics = {
        "ops_per_s": len(lat_ms) / run.wall_s,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_tail_ms": percentile(lat_ms, tail),
        "peak_rss_mb": statistics.median(run.peak_rss_kb) / 1024,
        "setup_s": statistics.median(run.setup_s),
    }
    notes = {"samples": len(lat_ms), "tail_percentile": tail,
             "setup_samples": len(run.setup_s), "rss_samples": len(run.peak_rss_kb)}
    return metrics, notes


def traced(workload: str, seed: int, size: dict) -> tuple[Run, dict]:
    """One unit of the workload three times: untraced, under the span tracer
    (calls, self times, overhead) and under tracemalloc (live memory)."""
    run = Run()
    table = inputs.CompletionTable()
    layers = {}
    if workload == "cli-cold":
        requests = cli_cycle(random.Random(f"{seed}:cli-cold:0"), table, size)
        plain_ns = spans_ns = 0
        procs, startups, spans, memory = [], [], [], []
        for req in requests:
            latency, _ = cli_request(req)
            plain_ns += latency
            spawned = time.monotonic()
            latency, proc = cli_request(req, "spans")
            spans_ns += latency
            procs.append(proc)
            run.latency_ns.append(latency)
            summary = _trace_summary(proc)
            if summary is not None:
                startups.append(summary["imported"] - spawned)
                spans.append(summary)
            summary = _trace_summary(cli_request(req, "memory")[1])
            if summary is not None:
                memory.append(summary["live_kib"])
        run.attempted = len(requests)
        run.failed = cli_failures(requests, procs)
        run.inputs = requests
        layers = _merge_summaries(spans)
        layers["live_kib"] = {layer: max(m[layer] for m in memory) for layer in memory[0]} \
            if memory else {}
        layers["startup_s"] = statistics.median(startups) if startups else 0.0
        layers["overhead_ratio"] = spans_ns / plain_ns
        layers["ops"] = len(requests)
    else:
        if workload == "stream-large":
            items = stream_episode(random.Random(f"{seed}:stream-large:0"), table, size)
            job = {"items": items, "passes": 1, "seconds": 1e9}
            planned = _planned(items, 3)
        else:
            job = small_job(random.Random(f"{seed}:small-exhaustive"), size)
            job.update(passes=1, seconds=1e9)
            planned = _planned(job["items"], 4)
        outs = [worker(workload, mode, job) for mode in ("run", "trace", "memory")]
        for out in outs:
            run.add_worker(out, planned)
        run.inputs = job["items"]
        plain, spans, memory = outs
        if None not in outs:
            layers = dict(spans["trace"])
            layers["live_kib"] = memory["trace"]["live_kib"]
            layers["startup_s"] = plain["startup_s"]
            layers["overhead_ratio"] = spans["wall_s"] / plain["wall_s"]
            layers["ops"] = spans["attempted"]
    run.units = 1
    return run, layers


def _trace_summary(proc):
    """The span summary a traced request left on the last line of stderr."""
    if proc is None or proc.returncode != 0 or not proc.stderr.strip():
        return None
    try:
        return json.loads(proc.stderr.strip().splitlines()[-1])
    except ValueError:
        return None


def _merge_summaries(summaries: list) -> dict:
    """Span counts and self times add up over requests."""
    merged = {"calls": {}, "function_calls": {}, "self_s": {}, "root_s": 0.0}
    for summary in summaries:
        for field in ("calls", "function_calls", "self_s"):
            for key, value in summary[field].items():
                merged[field][key] = merged[field].get(key, 0) + value
        merged["root_s"] += summary["root_s"]
    return merged


def per_layer(layers: dict) -> dict:
    calls = layers.get("calls", {})
    self_s = layers.get("self_s", {})
    live = layers.get("live_kib", {})
    metrics = {
        "cli.startup_ms": layers.get("startup_s", 0.0) * 1000,
        "weights.pair_nest_weight.calls":
            layers.get("function_calls", {}).get("weights.pair_nest_weight", 0),
        "trace.overhead_ratio": layers.get("overhead_ratio", 0.0),
        "trace.ops": layers.get("ops", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.live_kb"] = live.get(layer, 0.0)
    return metrics


# ---------------------------------------------------------------- main

def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "motzkin" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from the root of a motzkin checkout (no {SRC / 'motzkin'})",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    size = SIZES["tiny" if args.tiny else "full"]

    if args.trace:
        run, layers = traced(args.workload, args.seed, size)
        values, notes = per_layer(layers), {"samples": len(run.latency_ns)}
        wanted = spec["per_layer"]
    else:
        run = measure(args.workload, args.seed, args.seconds, size)
        if not run.latency_ns or not run.setup_s or not run.peak_rss_kb:
            print("error: no operation completed; see the messages above", file=sys.stderr)
            return 1
        values, notes = end_to_end(run)
        wanted = spec["end_to_end"]
    if run.attempted == 0:
        print("error: no operation was attempted", file=sys.stderr)
        return 1

    about = {
        "workload": args.workload, "trace": args.trace, **environment(args.seed),
        "inputs_sha256": inputs.digest(run.inputs), "units": run.units, **notes,
        "failed_ratio": run.failed / run.attempted,
    }
    print("# " + json.dumps(about))
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"# {metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
