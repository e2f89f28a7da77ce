import pytest

from motzkin import checks, oracle, sequences, weights, word_model
from motzkin.errors import DomainViolationError, RangeTooLargeError


def test_all_checks_pass_at_small_lengths():
    results = checks.run_checks(8)
    assert [r.name for r in results] == [
        "range-sizes", "lexicographic-order", "rank-agreement",
        "unrank-bijection", "completions-vs-motzkin", "range-extrema"]
    assert all(r.passed for r in results)
    assert all(r.detail for r in results)


def test_a_wrong_rank_formula_is_caught(monkeypatch):
    # the battery must referee for real, not rubber-stamp
    true_rank = weights.rank

    def skewed(w):
        value = true_rank(w)
        return value + 1 if value == 40 else value

    monkeypatch.setattr(weights, "rank", skewed)
    results = {r.name: r for r in checks.run_checks(6)}
    assert not results["rank-agreement"].passed
    assert "41" in results["rank-agreement"].detail


def test_a_wrong_unrank_is_caught(monkeypatch):
    true_unrank = weights.unrank

    def skewed(i):
        return true_unrank(i + 1 if i == 7 else i)

    monkeypatch.setattr(weights, "unrank", skewed)
    results = {r.name: r for r in checks.run_checks(6)}
    assert not results["unrank-bijection"].passed


@pytest.mark.parametrize("skew, detail", [
    (lambda e: e._replace(max_word=e.min_word),
     "length 5: enumeration endpoints do not match extrema"),
    (lambda e: e._replace(min_weight=e.min_weight + 1),
     "length 5: extrema weights disagree with rank"),
])
def test_wrong_range_extrema_are_caught(monkeypatch, skew, detail):
    true_extrema = weights.range_extrema
    monkeypatch.setattr(weights, "range_extrema",
                        lambda n: skew(true_extrema(n)) if n == 5 else true_extrema(n))
    results = checks.run_checks(6)
    assert [r.name for r in results if not r.passed] == ["range-extrema"]
    assert results[-1].detail == detail


@pytest.mark.parametrize("r, h", [(9, 0), (7, 3)])
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
