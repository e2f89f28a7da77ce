import sys

try:
    from .cli import main
except KeyboardInterrupt:  # Ctrl-C while importing: the same line and exit code as `main`'s
    print("error: interrupted", file=sys.stderr)
    sys.exit(130)

sys.exit(main())
