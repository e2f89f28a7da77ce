"""The README's command-line examples whose comment is their literal output
print exactly that output."""

import re
import shlex
from pathlib import Path

from motzkin import cli

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_the_readme_command_line_examples_print_their_comments(capsys):
    examples = _examples()
    assert [argv[0] for argv, _ in examples] == ["rank", "unrank", "add", "sub"]
    for argv, expected in examples:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected, argv
