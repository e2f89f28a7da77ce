import pytest

from child_python import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_three_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "prime_pair_weights.py", "ranking_and_unranking.py", "word_arithmetic.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs_cleanly(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
