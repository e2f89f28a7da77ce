"""Smoke self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py        # from the root of the checkout

Runs every workload untraced and traced at tiny sizes and checks only the
output schema and that no operation failed, never timings.  It also checks
that the gate counts wrong answers injected here, that traced self times
never add up to more than the spans they came from, and that the benchmark
refuses to run, without printing a result, where the package is missing.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402  (imports motzkin from ROOT/src)
from spans import LAYERS, Tracer  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180)


def test_schema_and_no_failures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench_run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, (workload, result)
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in spec[section]}, (workload, trace)
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric


def test_gate_counts_injected_wrong_answers():
    x, y, merged = inputs.block_pair(random.Random(1), 2, 3)
    loop = worker.Loop(counting=False)
    records = loop.run([("w", "((0)0(0))0"), ("p", x, y, merged)])
    assert worker.check(records, False) == 0
    (item, r, c, u, total), (pair, z, back) = records
    assert worker.check([(item, r + 1, c, u, total), (pair, z, back)], False) == 1
    assert worker.check([(item, r, c, u, total), (pair, z, "()")], False) == 1
    assert worker.check([(item, r, c, "()", total), (pair, "()", back)], False) == 2
    assert worker.check([(item, r, c, u, None), (pair, z, back)], False) == 1

    def answered(stdout, stderr="", code=0):
        return subprocess.CompletedProcess([], code, stdout, stderr)

    req = ["rank", "(0)"]
    assert bench_run.cli_ok(req, answered("4\n"), [True, "4"])
    assert not bench_run.cli_ok(req, answered("5\n"), [True, "4"])
    assert not bench_run.cli_ok(req, answered("4\n"), [False, "4"])
    assert not bench_run.cli_ok(req, answered("4\n", "Traceback (most recent call last)"),
                                [True, "4"])
    assert not bench_run.cli_ok(req, answered("", code=1), [True, "4"])
    assert not bench_run.cli_ok(req, None, [True, "4"])


def test_self_times_within_span_durations():
    from motzkin import pair_arith, parse, weights, word_model
    original = word_model.matched_pairs
    tracer = Tracer()
    tracer.install()
    try:
        assert weights.matched_pairs is not original
        assert pair_arith.matched_pairs is weights.matched_pairs
        w = parse("((((0))0)0)")
        weights.unrank(weights.rank(w))
        weights.decompose(w)
        pair_arith.psub(pair_arith.padd(parse("()000"), parse("(0)")), parse("(0)"))
    finally:
        tracer.uninstall()
    assert weights.matched_pairs is original and pair_arith.matched_pairs is original
    summary = tracer.summary()
    assert all(summary["self_s"][layer] >= 0 for layer in LAYERS)
    assert sum(summary["self_s"].values()) <= summary["root_s"] + 1e-6
    calls = summary["function_calls"]
    assert calls["word_model.Word.__post_init__"] > 0
    # four pairs; the one at depth 3 recurses through the global name
    assert calls["weights.pair_nest_weight"] > 2 * 3
    assert summary["calls"]["pair_arith"] == 2


def test_refuses_without_package():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest_") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("small-exhaustive", 0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_gate_counts_injected_wrong_answers, test_self_times_within_span_durations,
                 test_refuses_without_package, test_schema_and_no_failures):
        test()
        print("ok", test.__name__)
