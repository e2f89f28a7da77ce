"""One traced CLI request: `motzkin.cli.main(argv)` under the span tracer
(`spans`) or under tracemalloc (`memory`).

    python3 bench/traced_cli.py spans|memory ARGS...

ARGS are those of `python -m motzkin`.  The CLI's own output goes to
stdout as usual; the last line of stderr is one JSON object with the span
summary or the live memory per module, and the monotonic time at which
the import finished.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import motzkin.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import tracemalloc  # noqa: E402

from spans import Tracer, live_kib  # noqa: E402


def main(argv) -> int:
    mode, argv = argv[0], argv[1:]
    if mode == "memory":
        tracemalloc.start()
        code = motzkin.cli.main(argv)
        summary = {"live_kib": live_kib(Path(motzkin.__file__).resolve().parent)}
    else:
        tracer = Tracer()
        tracer.install()
        try:
            code = motzkin.cli.main(argv)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
    summary["imported"] = IMPORTED
    sys.stdout.flush()
    print(json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
