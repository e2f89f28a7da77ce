"""No two test functions under `tests/` share a name, so `-k` and
`--durations` name each test apart."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_test_function_name_is_unique_across_the_tests():
    names = Counter(node.name for path in TESTS.glob("test_*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"))
    assert sorted(name for name, count in names.items() if count > 1) == []
