"""The command line as a process.  A test here starts a child interpreter
only where the process itself is under test: a limit, pipe, encoding or
signal set for it, or what its imports load.  What the CLI reads and
prints, past the interpreter's default digit limit too, is checked in
process by `tests/test_cli.py`, and how much memory long words take by the
children of `tests/test_walk.py`.  Each child here checks one thing:

- out of memory: `rank` and `unrank` past 10^5 symbols, under a 256 MiB
  address-space limit, end with `error: out of memory` and exit 1;
- closed pipe: when the reader of `enumerate` leaves, the CLI exits 1 with
  nothing on stderr;
- ASCII stdout: `table` and `--help` print under `PYTHONIOENCODING=ascii`;
- SIGINT: a Ctrl-C while `table` writes is `error: interrupted` and exit
  130, whether this process holds SIGINT at its default or ignores it;
- Ctrl-C during import: the same when it arrives while `python -m motzkin`
  imports `motzkin.cli`;
- import probe: importing `motzkin.cli` loads neither `dataclasses` nor
  `inspect`.
"""

import signal

import pytest

from child_python import TIMEOUT, run_python, start_python


@pytest.mark.parametrize("argv", [
    # Both need the Motzkin numbers past 10^5 symbols: column 0 outgrows the limit.
    ["rank", "()" * 60_000],
    ["unrank", "7" * 60_000],  # past the interpreter's default digit limit
])
def test_running_out_of_memory_is_a_one_line_error(argv):
    proc = run_python("-m", "motzkin", *argv, memory=256 << 20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


def test_a_closed_stdout_pipe_ends_silently_with_exit_1():
    # About 1 MB of output: the child is still writing when the reader leaves.
    with start_python("-m", "motzkin", "enumerate", "--length", "14") as proc:
        assert proc.stdout.readline() == b"(000000000000)\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=TIMEOUT)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize("argv", [["table", "--max-n", "4"], ["--help"]])
def test_an_ascii_stdout_takes_all_the_cli_prints(argv):
    with start_python("-m", "motzkin", *argv, PYTHONIOENCODING="ascii") as proc:
        out, err = proc.communicate(timeout=TIMEOUT)
    assert proc.returncode == 0
    assert out and err == b""


# A child inherits an ignored SIGINT, so this holds only because `start_python`
# restores its default.
@pytest.mark.parametrize("held", [signal.default_int_handler, signal.SIG_IGN],
                         ids=["default", "ignored"])
def test_ctrl_c_is_a_one_line_error_with_exit_130(held):
    before = signal.signal(signal.SIGINT, held)
    try:  # the pipe is not drained, so the unbuffered child blocks in a write until the signal
        with start_python("-m", "motzkin", "table", "--max-n", "300", PYTHONUNBUFFERED="1") as proc:
            assert proc.stdout.readline().startswith(b"no\t")
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=TIMEOUT)
    finally:
        signal.signal(signal.SIGINT, before)
    assert proc.returncode == 130
    assert err == b"error: interrupted\n"


def test_ctrl_c_while_importing_the_cli_is_a_one_line_error_with_exit_130():
    # A finder that raises KeyboardInterrupt at the import of motzkin.cli stands
    # in for a Ctrl-C that arrives during it.
    probe = """
import runpy, sys

class Interrupt:
    def find_spec(self, name, path=None, target=None):
        if name == "motzkin.cli":
            raise KeyboardInterrupt

sys.meta_path.insert(0, Interrupt())
runpy.run_module("motzkin", run_name="__main__", alter_sys=True)
"""
    proc = run_python("-c", probe, "rank", "()")
    assert proc.returncode == 130
    assert proc.stdout == ""
    assert proc.stderr == "error: interrupted\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, motzkin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
