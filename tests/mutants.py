"""The mutation score of tier-1, module by module: how many one-token changes
to a module of the package make some tier-1 test fail.

Run as `python tests/mutants.py [module ...]`, for the named modules of
`src/motzkin` or, with no argument, for all of them.  The mutations are
fixed: `+` and `-`, `*` and `//`, `<` and `<=`, `>` and `>=`, `==` and `!=`
swap in expressions, comparisons and augmented assignments, and every
integer constant grows by 1.  Each mutant is written into a temporary copy
of the repository, never into this one, and tier-1 runs there with
`pytest -x` and a fixed Hypothesis seed, the module's own test files first,
under a `MEMORY` address-space limit.  The run leaves out this script's own
check, `test_mutants.py`, which finds each `EQUIVALENT` line in the source
and so fails for any mutant of such a line, whatever the package does.  A
mutant is killed when a test fails, or when its run takes over `SLOWDOWN`
times the unmutated copy's, which is timed first and must pass.  A run that
times out, or that a SIGTERM to this script cuts short, is ended with every
process it started, and a SIGTERM also removes the temporary copy.  The
mutants in `EQUIVALENT` change no answer, for the reason given, and are not
run.  For each module it prints how many of its mutants were killed, then
the line of each equivalent mutant and of each survivor.
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from itertools import accumulate
from pathlib import Path

from child_python import run_python

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "motzkin"
MEMORY = 3 << 29  # 1.5 GiB, twice the peak address space of a tier-1 run
SLOWDOWN = 3
SWAPS = {"+": "-", "-": "+", "*": "//", "//": "*", "<": "<=", "<=": "<", ">": ">=", ">=": ">",
         "==": "!=", "!=": "==", "+=": "-=", "-=": "+=", "*=": "//=", "//=": "*="}
OWN_TESTS = {"weights": ["test_weights.py", "test_walk.py"], "errors": ["test_messages.py"]}
EQUIVALENT = {  # (module, its mutated line, stripped): why no input tells it from the module
    ("sequences", "while low and len(_columns[low - 1]) <= top + low + 1:"):
        "a scan that stops lower only regrows columns that are already long enough",
    ("sequences", "while low and len(_columns[low - 1]) <= top - low + 2:"):
        "the scan also passes columns of exactly their target length, whose growth is empty",
    ("sequences", "new = [a - b - c for a, b, c in zip(below[n + 1:end + 2], below[n:end], lower)]"):
        "zip stops at the shorter slice, below[n:end]",
    ("weights", "n = max(1, (i.bit_length() + 1) * 100 // 159)"):
        "the guess stays at most n: by i < M_n < 3^n for n >= 82, and at i = M_n - 1 below",
    ("weights", "if rise <= 0:"): "rise is 1 or -1 there, never 0",
    ("weights", "if rise < 1:"): "rise is 1 or -1 there, never 0",
    ("checks", "for r in range(top + 2) for h in range(r + 1)"):
        "the extra row top + 1 agrees between the table and the oracle, as every row does",
    ("checks", "for r in range(top + 1) for h in range(r + 2)"):
        "past the diagonal both completions return 0 without reading a table",
}


def mutants(source: str) -> list[tuple[int, str, str]]:
    """Every mutant of a module's source as (byte offset, old token, new
    token), in source order: the same list for the same source."""
    data = source.encode()  # AST columns count UTF-8 bytes
    starts = [0, *accumulate(map(len, data.splitlines(keepends=True)))]
    found = []
    for node in ast.walk(ast.parse(data)):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            found.append((start, data[start:end].decode(), str(node.value + 1)))
        pairs = ([(node.left, node.right)] if isinstance(node, ast.BinOp) else
                 [(node.target, node.value)] if isinstance(node, ast.AugAssign) else
                 zip([node.left, *node.comparators], node.comparators)
                 if isinstance(node, ast.Compare) else [])
        for left, right in pairs:  # nothing but the operator and brackets lies between them
            start = starts[left.end_lineno - 1] + left.end_col_offset
            between = data[start:starts[right.lineno - 1] + right.col_offset].decode()
            old = between.strip(" \t\n\\()")
            if old in SWAPS:
                found.append((start + between.index(old), old, SWAPS[old]))
    return sorted(found)


def mutated(source: str, mutant: tuple[int, str, str]) -> str:
    """The source with the mutant's old token, at its offset, replaced."""
    data, (offset, old, new) = source.encode(), mutant
    assert data[offset:offset + len(old)] == old.encode(), mutant
    return (data[:offset] + new.encode() + data[offset + len(old):]).decode()


def changed_line(source: str, mutant: tuple[int, str, str]) -> tuple[int, str]:
    """The number of the line a mutant changes, and that line of the mutated
    source, stripped: the form `EQUIVALENT` lists it in."""
    line = source.encode().count(b"\n", 0, mutant[0])
    return line + 1, mutated(source, mutant).split("\n")[line].strip()


def _passes(copy: Path, module: str, timeout: float | None) -> bool:
    """Whether tier-1 passes in the copy, the module's own test files first."""
    own = [name for name in OWN_TESTS.get(module, [f"test_{module}.py"]) if (TESTS / name).exists()]
    rest = sorted(path.name for path in TESTS.glob("test_*.py")
                  if path.name not in [*own, "test_mutants.py"])
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example saved by another run
    try:
        return run_python("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "--hypothesis-seed=0", *(f"tests/{name}" for name in own + rest),
                          memory=MEMORY, root=copy, timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(modules: list[str]) -> None:
    names = modules or sorted(path.stem for path in SRC.glob("*.py"))
    if any(not (SRC / f"{name}.py").is_file() for name in names):
        sys.exit(f"error: the modules are {', '.join(sorted(p.stem for p in SRC.glob('*.py')))}")
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # no stale bytecode for a mutant of equal size
    # SIGTERM unwinds like an exit, so the run's processes are killed and its copy removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(TESTS.parent, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_selftest_*"))
        start = time.monotonic()
        if not _passes(copy, "", None):
            sys.exit("error: tier-1 fails on the unmutated copy")
        timeout = SLOWDOWN * (time.monotonic() - start)
        for name in names:
            path = copy / "src" / "motzkin" / f"{name}.py"
            source, equivalent, survivors, killed = path.read_text(encoding="utf-8"), [], [], 0
            for mutant in mutants(source):
                number, changed = changed_line(source, mutant)
                shown = f"{name}.py:{number}: {changed}"
                if (name, changed) in EQUIVALENT:
                    equivalent.append(f"{shown}  ({EQUIVALENT[name, changed]})")
                    continue
                path.write_text(mutated(source, mutant), encoding="utf-8")
                try:
                    if _passes(copy, name, timeout):
                        survivors.append(shown)
                    else:
                        killed += 1
                finally:
                    path.write_text(source, encoding="utf-8")
            print(f"{name}: {killed} of {killed + len(equivalent) + len(survivors)} killed")
            for kind, lines in (("equivalent", equivalent), ("survived  ", survivors)):
                for shown in lines:
                    print(f"  {kind} {shown}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
