"""The mutant list of `tests/mutants.py`: its rules pinned on a small source,
and, for every module of the package, the same list in another interpreter,
whose string hashes differ, each mutant a changed token that compiles.  Each
`EQUIVALENT` entry is the changed line of a mutant of its module's source."""

from child_python import run_python
from mutants import EQUIVALENT, SRC, changed_line, mutants, mutated


def test_the_mutant_list_is_a_fixed_function_of_the_source():
    source = 'if a + 1 < f(b) * 2 ** k and c is not True:\n    n //= c == -3\n    s = f"{a - b}"\n'
    assert mutants(source) == [(5, "+", "-"), (7, "1", "2"), (9, "<", "<="), (16, "*", "//"),
                               (18, "2", "3"), (50, "//=", "*="), (56, "==", "!="),
                               (60, "3", "4"), (75, "-", "+")]
    proc = run_python("-c", "import sys; sys.path.insert(0, 'tests'); from mutants import *\n"
                            "for path in sorted(SRC.glob('*.py')):\n"
                            "    print(mutants(path.read_text('utf-8')))")
    assert proc.returncode == 0, proc.stderr
    changed = set()
    for path, listed in zip(sorted(SRC.glob("*.py")), proc.stdout.splitlines(), strict=True):
        source = path.read_text(encoding="utf-8")
        assert str(mutants(source)) == listed, path.name
        for mutant in mutants(source):  # `mutated` finds each old token where its mutant says
            text = mutated(source, mutant)
            assert text != source, mutant
            compile(text, path.name, "exec")
            changed.add((path.stem, changed_line(source, mutant)[1]))
    assert set(EQUIVALENT) - changed == set()  # no entry names a line that is gone
