"""The frozen answers of `frozen_answers`: every path gives the committed
answers digest, and the shipped path leaves the committed table digest.

No change may move the answers digest, since the answers are exact.  A
change that moves the table digest on purpose regenerates it with
`python tests/frozen_answers.py` and says why in `CHANGES.md`.
"""

import math

import pytest

from motzkin import weights

from frozen_answers import DEEPEST, answers_digest, first_difference, frozen_words, run, table_digest

ANSWERS_DIGEST = "43b97802c71bf7901401f1d3fc7d7b28db4b642acc142407bdf11a7046e33bf8"
TABLE_DIGEST = "8ba81842d56c920b326b9f2b68b923e4d74bb17a2a64d5ccfa82e0ce082bb24b"


@pytest.fixture(scope="module")
def shipped():
    """The words, and the shipped path's answers and column lengths."""
    texts = frozen_words()
    return (texts, *run(texts))


def test_every_path_gives_the_frozen_answers(shipped, force_cap):
    texts, records, _ = shipped
    force_cap(0)  # every word walked
    difference = first_difference(texts, records, run(texts)[0])
    assert difference is None, f"shipped path and cap 0: {difference}"
    force_cap(math.inf)  # no word walked, so the deepest word is left out
    kept = [i for i, text in enumerate(texts) if text != DEEPEST]
    difference = first_difference([texts[i] for i in kept], [records[i] for i in kept],
                                  run([texts[i] for i in kept])[0])
    assert difference is None, f"shipped path and cap inf: {difference}"
    assert answers_digest(records) == ANSWERS_DIGEST, \
        "all paths agree, and the frozen answers moved"


def test_the_shipped_path_leaves_the_frozen_table(shipped):
    lengths = shipped[2]
    assert table_digest(lengths) == TABLE_DIGEST, \
        f"the table moved: {len(lengths)} columns of {sum(lengths)} entries"


def test_the_gate_names_the_word_and_call_where_one_path_goes_wrong(monkeypatch, force_cap):
    texts = ["()", "(0)()", "((0))0", "(()(0))"]
    records = run(texts)[0]
    true_walk = weights._walked_weights

    def one_weight_off(text):
        walked = true_walk(text)
        walked[0] += text == texts[2]
        return walked

    monkeypatch.setattr(weights, "_walked_weights", one_weight_off)
    force_cap(0)
    assert first_difference(texts, records, run(texts)[0]) == "rank differs on word 2, '((0))0'"
