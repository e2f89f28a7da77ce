"""The one way tier-1 starts the package in a child interpreter: this
interpreter's executable, `src` on `PYTHONPATH`, the repository root as the
working directory, a timeout of `TIMEOUT` seconds, and, if asked, an
address-space limit.  `test_one_place_helpers.py` checks that no other test
module sets `PYTHONPATH` or `RLIMIT_AS` itself.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60


def _options(memory, env):
    options = {"cwd": ROOT, "env": {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}}
    if memory is not None:
        options["preexec_fn"] = lambda: resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    return options


def run_python(*args, memory=None):
    """`python *args` run to its end, its address space capped at `memory`
    bytes if given, with stdout and stderr captured as text."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=TIMEOUT, **_options(memory, {}))


def start_python(*args, **env):
    """`python *args` started with the extra environment variables `env`, its
    stdout and stderr byte pipes.  The caller ends it with
    `communicate(timeout=TIMEOUT)` inside a `with` block, which closes the
    pipes even when an assertion fails first."""
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **_options(None, env))
