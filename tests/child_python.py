"""The one way tier-1 starts the package in a child interpreter: this
interpreter's executable, the `src` of a repository root on `PYTHONPATH`
and that root as the working directory (this repository's unless given),
a timeout (`TIMEOUT` seconds unless given), SIGINT at its default and,
if asked, an address-space limit.  `test_one_place_helpers.py` checks that
no other test module sets `PYTHONPATH` or `RLIMIT_AS` itself.
"""

import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60


def _options(memory, env, root=ROOT):
    def preexec():  # Ctrl-C stops the child, even where this process ignores it
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if memory is not None:
            resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    return {"cwd": root, "env": {**os.environ, "PYTHONPATH": str(root / "src"), **env},
            "preexec_fn": preexec}


def run_python(*args, memory=None, root=ROOT, timeout=TIMEOUT):
    """`python *args` run to its end in `root`, its address space capped at
    `memory` bytes if given, with stdout and stderr captured as text.

    Past `timeout` seconds the child is killed and `subprocess.TimeoutExpired`
    raised; any other exception that ends the wait early kills it too.  A
    process that no `run_python` started gives its child a session of its
    own, and every process below that child, started by `run_python` or not,
    stays in the child's process group; so the kill ends the whole group, and
    a run of tier-1 under `tests/mutants.py` ends with all it started."""
    lead = os.getsid(0) != os.getpid()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=lead,
                          **_options(memory, {}, root)) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException:  # a timeout, or a signal that ends the caller
            if lead:
                os.killpg(proc.pid, signal.SIGKILL)
            else:  # the caller's own group: whoever started the caller ends it
                proc.kill()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def start_python(*args, **env):
    """`python *args` started with the extra environment variables `env`, its
    stdout and stderr byte pipes.  The caller ends it with
    `communicate(timeout=TIMEOUT)` inside a `with` block, which closes the
    pipes even when an assertion fails first."""
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **_options(None, env))
