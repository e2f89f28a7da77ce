import pytest

from motzkin import checks, oracle, sequences, weights, word_model
from motzkin.errors import DomainViolationError, RangeTooLargeError


# the battery must referee for real, not rubber-stamp; "()0" then "(00)" is one
# consecutive pair, compared once
@pytest.mark.parametrize("owner, name, skew, failed, detail", [
    (weights, "rank", lambda true: lambda w: true(w) + (true(w) == 40), "rank-agreement",
     "(())00: formula 41, counting 40, position 40"),
    (weights, "unrank", lambda true: lambda i: true(i + (i == 7)), "unrank-bijection",
     "unrank(7) = ()(), expected ()00"),
    (checks, "compare_lex", lambda true: lambda a, b: 0 if (a.text, b.text) == ("()0", "(00)")
     else true(a, b), "lexicographic-order", "()0 !< (00)"),
])
def test_a_wrong_answer_fails_its_own_check(monkeypatch, owner, name, skew, failed, detail):
    monkeypatch.setattr(owner, name, skew(getattr(owner, name)))
    results = checks.run_checks(6)
    assert [(r.name, r.detail) for r in results if not r.passed] == [(failed, detail)]


@pytest.mark.parametrize("length, skew, detail", [
    (5, lambda e: e._replace(max_word=e.min_word),
     "length 5: enumeration endpoints do not match extrema"),
    (5, lambda e: e._replace(min_weight=e.min_weight + 1),
     "length 5: extrema weights disagree with rank"),
    (2, lambda e: e._replace(max_weight=0), "length 2: extrema weights disagree with rank"),
])
def test_wrong_range_extrema_are_caught(monkeypatch, length, skew, detail):
    true_extrema = weights.range_extrema
    monkeypatch.setattr(weights, "range_extrema",
                        lambda n: skew(true_extrema(n)) if n == length else true_extrema(n))
    results = checks.run_checks(6)
    assert [r.name for r in results if not r.passed] == ["range-extrema"]
    assert results[-1].detail == detail


@pytest.mark.parametrize("r, h", [(9, 0), (7, 3), (20, 0), (20, 19)])
def test_a_wrong_table_entry_is_caught_at_any_height(fresh_state, r, h):
    # the check reads every entry through row 20, growing what is missing, so
    # one run stores them all before one entry is skewed
    assert all(result.passed for result in checks.run_checks(6))
    sequences._columns[h][r] += 1
    [failed] = [result for result in checks.run_checks(6) if not result.passed]
    assert failed.name == "completions-vs-motzkin"
    assert failed.detail.startswith(f"completions({r}, {h}): table ")


@pytest.mark.parametrize("max_len, error", [(17, RangeTooLargeError),
                                            (0, DomainViolationError)])
def test_bad_lengths_are_refused_before_any_enumeration(record, max_len, error):
    lengths = record(oracle, "enumerate_range", lambda n: n)
    with pytest.raises(error):
        checks.run_checks(max_len)
    assert lengths == [max_len]


def test_result_records_keep_their_field_names():
    assert checks.CheckResult._fields == ("name", "passed", "detail")
    assert weights.Decomposition._fields == ("word_length", "entries", "total")
    assert word_model.PrimeSegment._fields == ("word", "start_pos")
