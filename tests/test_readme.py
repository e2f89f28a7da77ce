"""The README's examples state their values, and the tests and constants
that the README and the package's docs cite exist.

A command-line example whose comment is one token prints exactly that token.
Each commented line of the Quick start states its value: the comment's first
token, with a trailing comma stripped, is `str` or `repr` of the value."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import pytest

from motzkin import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _examples():
    """(argv, stdout) for each line of the README's command-line block whose
    comment is one token, the command's whole output."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if len(comment.split()) == 1:
            argv = shlex.split(command)
            assert argv[0] == "motzkin", line
            examples.append((argv[1:], comment.strip() + "\n"))
    return examples


COMMANDS = ["rank", "unrank", "add", "sub"]


@pytest.mark.parametrize("command", COMMANDS)
def test_the_readme_command_line_examples_print_their_comments(command, capsys):
    examples = _examples()
    assert [argv[0] for argv, _ in examples] == COMMANDS
    argv, expected = examples[COMMANDS.index(command)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected, argv


def _quick_start():
    """(line, code, first comment token) for each line of the Quick start block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n.*?```python\n(.*?)```", text, re.S).group(1)
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        yield line, code.strip(), comment.split()[0].removesuffix(",") if comment else None


def test_each_quick_start_comment_states_the_value_of_its_line():
    namespace, stated = {}, []
    for line, code, token in _quick_start():
        if not code:
            continue
        statement, value = ast.parse(code).body[0], None
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            if isinstance(statement, ast.Assign):  # the assigned value
                value = eval(ast.unparse(statement.targets[0]), namespace)
        if token is not None:
            assert token in (str(value), repr(value)), line
            stated.append(token)
    assert len(stated) == 9


def _cited_tests(text):
    return set(re.findall(r"\btest_\w+", text))


def test_every_cited_test_and_constant_exists():
    # Each test name a src docstring or comment or the README cites, and each
    # module constant the README names, with the value it states beside it.
    defined = {path.stem for path in (ROOT / "tests").glob("test_*.py")}
    for path in (ROOT / "tests").glob("*.py"):
        defined.update(node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if isinstance(node, ast.FunctionDef))
    readme = README.read_text(encoding="utf-8")
    cited = _cited_tests(readme)
    for path in (ROOT / "src" / "motzkin").glob("*.py"):
        cited.update(_cited_tests(path.read_text(encoding="utf-8")))
    assert cited - defined == set()
    constants = re.findall(r"`(\w+)\.(_?[A-Z][A-Z0-9_]*)`(?: \(([\d ]+)\))?", readme)
    assert len(constants) >= 8
    for module, name, value in constants:
        actual = getattr(importlib.import_module(f"motzkin.{module}"), name)
        assert not value or int(value.replace(" ", "")) == actual, (module, name)
