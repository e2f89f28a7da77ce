"""Code lines and docstring lines of each module of the package, the counts
`ROADMAP.md` tracks.

Run as `python tests/code_lines.py`: it prints each module's two counts,
largest code count first, and the totals.  If its reader leaves early, it
stops silently with exit 1, as the `motzkin` CLI does.  A code line is a
physical line that holds a token of a statement, so every line of a
multi-line statement counts, string lines included.  Blank lines, comment
lines and the docstrings of modules, classes and functions do not.  A
docstring line is a physical line that such a docstring spans, its blank
lines included.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "motzkin"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_spans(tree):
    """((line, column), (end line, end column)) of each docstring in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield (first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    spans = list(_docstring_spans(ast.parse(source)))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or any(start <= token.start < end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def docstring_lines(source: str) -> int:
    """The number of lines the docstrings of a module's source span."""
    return sum(end[0] - start[0] + 1 for start, end in _docstring_spans(ast.parse(source)))


def main() -> int:
    counts = {}
    for path in SRC.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        counts[path.stem] = code_lines(source), docstring_lines(source)
    try:
        print(f"{'module':<12}{'code':>5}{'docs':>6}")
        for name, (code, docs) in sorted(counts.items(), key=lambda item: (-item[1][0], item[0])):
            print(f"{name:<12}{code:>5}{docs:>6}")
        code, docs = map(sum, zip(*counts.values()))
        print(f"{'total':<12}{code:>5}{docs:>6}")
        sys.stdout.flush()  # a pipe that closes before this flush is caught below too
    except BrokenPipeError:  # the reader left: print nothing, and keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
