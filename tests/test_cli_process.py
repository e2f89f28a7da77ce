import signal
import sys

import pytest

from motzkin import sequences

from child_python import TIMEOUT, run_python, start_python

GIB = 1 << 30


def test_rank_of_a_10000_symbol_word_prints_in_a_bounded_process():
    # The rank has 4766 digits, past the interpreter's default int-to-str
    # limit of 4300, and needs the Motzkin numbers up to M_10000.
    proc = run_python("-m", "motzkin", "rank", "()" * 5000, memory=GIB)
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


def test_a_deep_4000_symbol_word_round_trips_in_a_bounded_process():
    # Its completion table would outgrow the limit; the walk keeps it in column 0.
    word = "(" * 2000 + ")" * 2000
    ranked = run_python("-m", "motzkin", "rank", word, memory=GIB)
    assert ranked.returncode == 0, ranked.stderr
    back = run_python("-m", "motzkin", "unrank", ranked.stdout.strip(), memory=GIB)
    assert back.returncode == 0, back.stderr
    assert back.stdout == word + "\n"


def test_a_9543_digit_index_round_trips_in_a_bounded_process():
    index = "7" * 9543
    # past the interpreter's default digit limit
    word = run_python("-m", "motzkin", "unrank", index, memory=GIB)
    assert word.returncode == 0, word.stderr
    ranked = run_python("-m", "motzkin", "rank", word.stdout.strip(), memory=GIB)
    assert ranked.returncode == 0, ranked.stderr
    assert ranked.stdout == index + "\n"


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
