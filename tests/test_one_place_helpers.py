"""Two shared helpers are the one place tier-1 does their job: `child_python`
sets up a child interpreter, and the `race` fixture of `conftest` sets the
switch interval for a thread race.

No other test module names what they set, so a hand-built environment or
race cannot come back beside its helper unnoticed.  This module names them
only to look for them.  Each module is its own case, so a failure names it.
"""

from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
OWNERS = {"PYTHONPATH": "child_python.py", "RLIMIT_AS": "child_python.py",
          "setswitchinterval": "conftest.py"}
MODULES = sorted(path for path in TESTS.glob("*.py") if path.name != Path(__file__).name)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_helpers_set_up_a_child_interpreter_or_a_thread_race(path):
    assert set(OWNERS.values()) <= {module.name for module in MODULES}
    found = {name for name in OWNERS if name in path.read_text(encoding="utf-8")}
    assert found == {name for name, owner in OWNERS.items() if owner == path.name}
