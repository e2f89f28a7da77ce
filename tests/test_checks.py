import pytest

from motzkin import checks, weights, word_model


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


def test_result_records_keep_their_field_names():
    assert checks.CheckResult._fields == ("name", "passed", "detail")
    assert weights.Decomposition._fields == ("word_length", "entries", "total")
    assert word_model.PrimeSegment._fields == ("word", "start_pos")
