import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv, extra_env", [
    (["rank", "(" * 2000 + ")" * 2000], {}),  # its completion table outgrows the limit
    (["unrank", "7" * 9543], {"PYTHONINTMAXSTRDIGITS": "0"}),  # past the default digit limit
])
def test_running_out_of_memory_is_a_one_line_error(argv, extra_env):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **extra_env}
    proc = subprocess.run([sys.executable, "-m", "motzkin", *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_a_closed_stdout_pipe_ends_silently_with_exit_1():
    # About 1 MB of output: the child is still writing when the reader leaves.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "motzkin", "enumerate", "--length", "14"],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"(000000000000)\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_ctrl_c_is_a_one_line_error_with_exit_130():
    # The pipe is not drained, so the unbuffered child blocks in a write
    # until the signal comes.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "motzkin", "table", "--max-n", "300"],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"no\t")
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert err == b"error: interrupted\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = "import sys, motzkin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
