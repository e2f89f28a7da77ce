"""No raised message writes a caller's value except through `shown` or `len`.

Ranks, indices, sizes and words reach the package at any magnitude.  A
placeholder that writes a parameter directly raises a bare `ValueError`
past Python's int-to-str digit limit, or echoes a whole word.  So in every
f-string of a `raise`, a placeholder that reads a parameter of the
enclosing function, or an attribute of one, reads it inside `shown(...)` or
`len(...)`.  `errors` and `word_model` are out of scope: their messages show
a position, one character or a field name.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motzkin"
MODULES = ["sequences", "weights", "oracle", "cli"]
GUARDS = {"shown", "len"}


def _parameters(function):
    args = function.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return {arg.arg for arg in named if arg is not None}


def _bare_reads(node, parameters):
    """The parameters `node` reads outside a `shown(...)` or `len(...)` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in GUARDS:
        return
    if isinstance(node, ast.Name) and node.id in parameters:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _bare_reads(child, parameters)


def unshown(tree, parameters=frozenset()):
    """(line, parameter) for each placeholder of a raised f-string that writes a
    parameter of its innermost enclosing function unguarded."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        parameters = _parameters(tree)
    if isinstance(tree, ast.Raise) and tree.exc is not None:
        for node in ast.walk(tree.exc):
            if isinstance(node, ast.FormattedValue):
                for name in _bare_reads(node.value, parameters):
                    yield node.value.lineno, name
    for child in ast.iter_child_nodes(tree):
        yield from unshown(child, parameters)


def test_the_check_flags_a_bare_parameter_and_an_attribute_of_one():
    tree = ast.parse(
        "def guard(n, w, size=3):\n"
        "    local = n\n"
        "    raise E(f'{n} {w.text!r} {n + 1} {shown(n)} {len(w.text)} {local} {size:>{n}}')\n"
        "def outer(n):\n"
        "    def inner(text):\n"
        "        raise E(f'{text} {n}')\n")
    assert sorted(unshown(tree)) == [(3, "n"), (3, "n"), (3, "n"), (3, "size"), (3, "w"),
                                     (6, "text")]


@pytest.mark.parametrize("module", MODULES)
def test_every_raised_message_shows_parameters_through_shown(module):
    path = SRC / f"{module}.py"
    found = [f"{path.name}:{line} {name}"
             for line, name in unshown(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
