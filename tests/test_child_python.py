"""`child_python` is the one place tier-1 sets up a child interpreter.

No other test module names the variable or the limit it sets, so a
hand-built environment cannot come back beside the runner unnoticed.  This
module names them only to look for them.
"""

from pathlib import Path

TESTS = Path(__file__).resolve().parent
NAMES = ("PYTHONPATH", "RLIMIT_AS")


def test_only_the_runner_sets_up_a_child_interpreter():
    found = {(path.name, name) for path in TESTS.glob("*.py") if path.name != Path(__file__).name
             for name in NAMES if name in path.read_text(encoding="utf-8")}
    assert found == {("child_python.py", name) for name in NAMES}
