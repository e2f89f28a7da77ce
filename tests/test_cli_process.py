import os
import resource
import subprocess
import sys
from pathlib import Path

from motzkin import sequences

ROOT = Path(__file__).resolve().parent.parent
GIB = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (GIB, GIB))


def test_rank_of_a_10000_symbol_word_prints_in_a_bounded_process():
    # The rank has 4766 digits, past the interpreter's default int-to-str
    # limit of 4300, and needs the Motzkin numbers up to M_10000.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "motzkin", "rank", "()" * 5000],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    answer = proc.stdout.strip()
    assert len(answer) == 4766
    sys_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(answer) == sequences.motzkin_number(10000) - 1
    finally:
        sys.set_int_max_str_digits(sys_limit)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, motzkin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
