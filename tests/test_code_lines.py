"""The rules of `code_lines` and `docstring_lines`, the counters of the
package's and the tests' tracked code and docstring lines, pinned on small
sources (no total is pinned: it moves with the code), and the `tests` line
that `code_lines.py` prints last."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from code_lines import code_lines, docstring_lines, main


@pytest.mark.parametrize("source, count, docs", [
    ("x = 1\n\n\ny = 2\n", 2, 0),  # blank lines
    ("# a comment\nx = 1  # a trailing one\n    # an indented one\n", 1, 0),
    ('"""The module docstring,\n\nover three lines."""\nx = 1\n', 1, 3),
    ('def f():\n    """Its docstring."""\n    return 1\n', 2, 1),
    ('class A:\n    """Its\n    docstring."""\n\n    async def f(self):\n'
     '        """Its docstring."""\n', 2, 3),
    ('def f(): """a docstring on the def line"""\n', 1, 1),
    ('x = 1\n"""A string after the first statement is code."""\n', 2, 0),
    ('def f():\n    x = 1\n    """Nor is this a docstring."""\n', 3, 0),
    ('text = """a string\n\nof three lines"""\n', 3, 0),  # its blank line too
    ("x = f(1,\n      # a comment inside\n\n      2,\n)\n", 3, 0),  # every line of a statement
    ("x = 1 + \\\n    2\n", 2, 0),
])
def test_code_lines_counts_statement_lines_and_skips_the_rest(source, count, docs):
    assert code_lines(source) == count
    assert docstring_lines(source) == docs


def test_the_last_line_sums_both_counts_over_the_tests(capsys):
    assert main() == 0
    *_, total, tests = capsys.readouterr().out.splitlines()
    sources = [path.read_text(encoding="utf-8") for path in Path(__file__).parent.glob("*.py")]
    assert total.split()[0] == "total"
    assert tests.split() == ["tests", str(sum(map(code_lines, sources))),
                             str(sum(map(docstring_lines, sources)))]


def test_the_counter_ends_silently_with_exit_1_on_a_closed_stdout_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the first line
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).parent / "code_lines.py")],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
