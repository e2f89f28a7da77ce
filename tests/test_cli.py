import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from motzkin import cli, oracle, sequences, weights

from long_words import canonical_text
from reference_table import ROWS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "((00)0(0()))")
    assert code == 0
    assert out.splitlines() == [
        "12 1 0 5798",
        "11 8 1 3932",
        "6 2 1 30",
        "4 3 2 3",
        "total 9763",
    ]


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--json", "(0())0")
    assert code == 0
    assert json.loads(out) == {
        "length": 6,
        "pairs": [
            {"n": 6, "k": 2, "depth": 0, "contribution": 22},
            {"n": 4, "k": 3, "depth": 1, "contribution": 6},
        ],
        "total": 28,
    }


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "--length", "12", "--pair", "1,12",
                       "--pair", "2,5", "--pair", "7,11", "--pair", "9,10")
    assert code == 0
    assert out == "((00)0(0()))\n"


def test_seq(capsys):
    code, out, _ = run(capsys, "seq", "motzkin", "--upto", "5")
    assert (code, out.split()) == (0, ["1", "1", "2", "4", "9", "21"])
    code, out, _ = run(capsys, "seq", "unique", "--upto", "4")
    assert (code, out.split()) == (0, ["1", "1", "2", "5"])
    code, out, _ = run(capsys, "seq", "delta", "--upto", "4")
    assert (code, out.split()) == (0, ["0", "1", "3", "8"])
    code, out, _ = run(capsys, "seq", "delta-prime", "--upto", "5")
    assert (code, out.split()) == (0, ["0", "1", "4", "13"])


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "4")
    assert code == 0
    assert out.splitlines() == ["(00)", "(0)0", "(())", "()00", "()()"]


def _parse_table(out: str):
    rows = []
    for line in out.splitlines()[1:]:
        cells = line.split("\t")
        n, k = map(int, cells[1].split("/"))
        values = tuple(None if c == cli.DASH else int(c) for c in cells[4:])
        rows.append((int(cells[0]), n, k, cells[2], int(cells[3]), values))
    return rows


def test_table_reproduces_the_reference_rows(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "11")
    assert code == 0
    rows = _parse_table(out)
    assert len(rows) == 55
    assert rows[:46] == list(ROWS)


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--max-len", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS ") for line in lines)


def test_a_failed_verify_prints_every_line_then_one_error_naming_the_failed_checks(
        capsys, monkeypatch):
    true_rank = weights.rank

    def skewed(w):
        value = true_rank(w)
        return value + 1 if value == 40 else value

    monkeypatch.setattr(weights, "rank", skewed)
    code, out, err = run(capsys, "verify", "--max-len", "6")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 6
    assert [line.split()[1] for line in lines if line.startswith("FAIL ")] == ["rank-agreement"]
    assert err == "error: 1 of 6 checks failed: rank-agreement\n"


def test_help_lists_add_and_sub(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    listed = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()
              if line.split()[:1] in (["add"], ["sub"])]
    assert listed == [["add", "partial addition of two words"],
                      ["sub", "partial subtraction of two words"]]


_NEGATIVE = "unrank requires a nonnegative index, got "
_NAMED = "an integer of more than 80 characters"
_NONCANONICAL = "a value of 10001 characters is not canonical; strip leading zeros first"


# A domain error is exit 1, no stdout and one short stderr line, and the
# interpreter's digit limit comes back.
@pytest.mark.parametrize("argv, message", [
    (["rank", "(()"], "unbalanced word: unclosed '('"),
    (["rank", "0()"], "'0()' is not canonical; strip leading zeros first"),
    (["rank", "0" + "()" * 5000], _NONCANONICAL),
    (["decompose", "0" + "()" * 5000], _NONCANONICAL),
    (["add", "(00)", "()"], "operands intersect at position 4"),
    (["sub", "(())", "()"], "right operand is not a subword: mismatch at position 3"),
    (["compose", "--length", "6", "--pair", "2,3"], "position 1 must open a pair for lengths >= 2"),
    (["enumerate", "--length", "40"],
     f"length 40 exceeds the enumeration guard of {oracle.MAX_ENUM_LENGTH}"),
    (["verify", "--max-len", "0"], "enumerate_range requires n >= 1, got 0"),
    (["unrank", "-3"], _NEGATIVE + "-3"),
    (["unrank", "-1"], _NEGATIVE + "-1"),
    (["unrank", "-" + "7" * 79], _NEGATIVE + "-" + "7" * 79),
    (["unrank", "-" + "7" * 80], _NEGATIVE + _NAMED),
    (["unrank", "-1" + "0" * 79], _NEGATIVE + _NAMED),
    (["unrank", "-" + "9" * 79], _NEGATIVE + "-" + "9" * 79),
    (["unrank", "-" + "9" * 80], _NEGATIVE + _NAMED),
    (["unrank", "-" + "9" * 4400], _NEGATIVE + _NAMED),
    (["unrank", "-" + "7" * (cli.MAX_INDEX_DIGITS - 1)], _NEGATIVE + _NAMED),
])
def test_domain_errors_exit_1(capsys, argv, message):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n") and len(err.encode()) < 200
    assert sys.get_int_max_str_digits() == limit


def test_ranks_past_the_int_str_limit_print_exactly(capsys):
    word = "()" * 4600
    limit = sys.get_int_max_str_digits()
    code, rank_out, _ = run(capsys, "rank", word)
    assert code == 0
    code, text_out, _ = run(capsys, "decompose", word)
    assert code == 0
    code, json_out, _ = run(capsys, "decompose", "--json", word)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = sequences.motzkin_number(9200) - 1
        assert len(str(expected)) > limit
        assert int(rank_out) == expected
        assert int(text_out.splitlines()[-1].split()[1]) == expected
        assert json.loads(json_out)["total"] == expected
    finally:
        sys.set_int_max_str_digits(limit)


def test_unrank_index_past_the_int_str_limit_names_the_limit():
    # The CLI's own bound decides, not Python's digit limit; `test_usage_errors_exit_2`
    # checks the message.  It exceeds the digits of M_131071, since M_n < 3**n, so it
    # admits the rank of any word that fits in one Linux argument (131 071 characters).
    assert cli.MAX_INDEX_DIGITS > math.ceil(131_071 * math.log10(3)) == 62_537


_LONG = "7" * 5000


def _too_long(argument, chars, bound=cli.MAX_INTEGER_CHARS):
    return f"argument {argument}: a value of {chars} characters is over the {bound}-character limit"


def _over(argument, maximum):
    return f"argument {argument}: {maximum + 1} is over the maximum of {maximum}"


# A usage error is exit 2, no stdout and argparse's usage, then a last line that
# names a bad value by its length or echoes it only when short; None leaves that
# line in argparse's own wording.
@pytest.mark.parametrize("argv, message", [
    ([], None),
    (["frobnicate"], None),
    (["seq", "motzkin"], None),
    (["unrank", "twelve"], "argument index: invalid int value: 'twelve'"),
    (["compose", "--length", "6", "--pair", "junk"],
     "argument --pair: expected open,close positions like 3,7 (got 'junk')"),
    (["seq", "motzkin", "--upto", str(cli.MAX_SEQ_UPTO + 1)], _over("--upto", cli.MAX_SEQ_UPTO)),
    (["seq", "motzkin", "--upto", "1.5"], "argument --upto: invalid int value: '1.5'"),
    (["table", "--max-n", str(cli.MAX_TABLE_N + 1)], _over("--max-n", cli.MAX_TABLE_N)),
    (["table", "--max-n", "1.5"], "argument --max-n: invalid int value: '1.5'"),
    (["compose", "--pair", "1,2", "--length", str(cli.MAX_COMPOSE_LENGTH + 1)],
     _over("--length", cli.MAX_COMPOSE_LENGTH)),
    (["compose", "--pair", "1,2", "--length", "1.5"], "argument --length: invalid int value: '1.5'"),
    (["unrank", "7" * (cli.MAX_INDEX_DIGITS + 1)],
     _too_long("index", cli.MAX_INDEX_DIGITS + 1, cli.MAX_INDEX_DIGITS)),
    (["compose", "--pair", "1,2", "--length", _LONG], _too_long("--length", 5000)),
    (["compose", "--length", "6", "--pair", "1," + _LONG], _too_long("--pair", 5000)),
    (["compose", "--length", "6", "--pair", _LONG + ",2"], _too_long("--pair", 5000)),
    (["seq", "motzkin", "--upto", _LONG], _too_long("--upto", 5000)),
    (["enumerate", "--length", _LONG], _too_long("--length", 5000)),
    (["table", "--max-n", _LONG], _too_long("--max-n", 5000)),
    (["verify", "--max-len", _LONG], _too_long("--max-len", 5000)),
    # Under Python's default digit limit: these were read, then echoed in full.
    (["enumerate", "--length", "7" * 4000], _too_long("--length", 4000)),
    (["verify", "--max-len", "7" * 4000], _too_long("--max-len", 4000)),
    (["compose", "--length", "6", "--pair", "1," + "7" * 4000], _too_long("--pair", 4000)),
    (["seq", "motzkin", "--upto", "7" * 4300], _too_long("--upto", 4300)),
    (["unrank", "x" * 4000], "argument index: invalid int value: a value of 4000 characters"),
    (["compose", "--length", "6", "--pair", "7" * 5000],
     "argument --pair: expected open,close positions like 3,7 (got a value of 5000 characters)"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: motzkin") and len(err.encode()) < 400
    assert "77" not in err
    assert ("invalid int value" in err) == ("invalid int value" in (message or ""))
    assert message is None or err.splitlines()[-1] == f"motzkin {argv[0]}: error: {message}"
    if message and " is over the maximum of " in message:  # and the maximum itself is read
        maximum = int(message.rpartition(" ")[2])
        assert maximum in vars(cli.build_parser().parse_args([*argv[:-1], str(maximum)])).values()


def test_the_interpreters_digit_limit_changes_no_output(capsys):
    word = "()" * 5000  # its rank has 4766 digits
    refused = [["enumerate", "--length", "7" * 4000],
               ["unrank", "7" * (cli.MAX_INDEX_DIGITS + 1)],
               ["unrank", "x" * 5000]]
    limit = sys.get_int_max_str_digits()
    outputs = []
    try:
        for entry in (640, 0):
            sys.set_int_max_str_digits(entry)
            ranked = run(capsys, "rank", word)
            assert sys.get_int_max_str_digits() == entry
            results = [ranked, run(capsys, "unrank", ranked[1].strip())]
            assert sys.get_int_max_str_digits() == entry
            for argv in refused:
                with pytest.raises(SystemExit) as exc:
                    cli.main(argv)
                results.append((exc.value.code, *capsys.readouterr()))
                assert sys.get_int_max_str_digits() == entry
            outputs.append(results)
    finally:
        sys.set_int_max_str_digits(limit)
    assert outputs[0] == outputs[1]
    ranked, back, *refusals = outputs[0]
    assert ranked[0] == 0 and len(ranked[1]) == 4767
    assert back == (0, word + "\n", "")
    assert [(code, out) for code, out, _ in refusals] == [(2, "")] * len(refused)


def test_no_argument_is_read_by_bare_int():
    readers = {(name, action.dest): action.type
               for top in cli.build_parser()._actions if isinstance(top.choices, dict)
               for name, sub in top.choices.items() for action in sub._actions}
    assert {name for name, _ in readers} == {
        "rank", "unrank", "decompose", "compose", "add", "sub", "seq", "enumerate",
        "table", "verify"}
    assert [key for key, reader in readers.items() if reader is int] == []


def test_ctrl_c_while_parsing_arguments_is_a_one_line_error_with_exit_130(capsys, monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_parser", interrupted)
    limit = sys.get_int_max_str_digits()
    try:
        result = run(capsys, "rank", "()")
    except KeyboardInterrupt:  # escaping, it would stop the whole test run
        pytest.fail("KeyboardInterrupt escaped main")
    assert result == (130, "", "error: interrupted\n")
    assert sys.get_int_max_str_digits() == limit


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# Texts that no integer argument accepts: not an integer, or over the 80-character limit.
_MALFORMED = st.one_of(
    st.sampled_from(["", "-", "+", "1.5", "1e3", "0x10", "--1", "1,2", "7" * 81, str(10**80),
                     "-" + "7" * 80, "x" * 4000]),
    st.text(max_size=10).filter(_not_an_int))


def _size(most, past):
    """An integer argument's text: in range up to `most` (small enough to run in
    milliseconds), from `past` on out of range, or malformed.  Every in-range
    text stays at most `most`: "0_1", " 1 " and "٣" read as 1, 1 and 3."""
    return st.one_of(st.integers(-3, most).map(str),
                     st.integers(past, 10**80 - 1).map(str),
                     st.sampled_from(["-0", "+1", "0_1", " 1 ", "٣", "-" + "7" * 79]),
                     _MALFORMED)


_WORDS = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="()0", max_size=60),
    st.integers(1, 2000).flatmap(lambda n: st.binary(min_size=n, max_size=n)).map(canonical_text))
# In-range indices stop at 300 digits: the length search grows column 0 with the index's length,
# to about 1.7 GB at the longest index the CLI reads.
_INDEX = st.one_of(st.integers(-10**80, 10**300 - 1).map(str),
                   st.just("7" * (cli.MAX_INDEX_DIGITS + 1)), _MALFORMED)
_PAIRS = st.lists(st.one_of(st.tuples(st.integers(-2, 2100), st.integers(-2, 2100))
                            .map(lambda pair: "%d,%d" % pair), _MALFORMED), max_size=3).map(
    lambda pairs: [arg for pair in pairs for arg in ("--pair", pair)])


def _argv(*parts):
    """An argv strategy: each part is a literal argument, or a strategy for one
    argument or for a list of them."""
    return st.tuples(*(st.just(part) if isinstance(part, str) else part for part in parts)).map(
        lambda pieces: [arg for piece in pieces
                        for arg in (piece if isinstance(piece, list) else [piece])])


_ARGVS = st.one_of(
    _argv("rank", _WORDS),
    _argv("unrank", _INDEX),
    _argv("decompose", st.sampled_from([[], ["--json"]]), _WORDS),
    _argv("compose", "--length", _size(2000, cli.MAX_COMPOSE_LENGTH + 1), _PAIRS),
    _argv(st.sampled_from(["add", "sub"]), _WORDS, _WORDS),
    _argv("seq", st.sampled_from([*cli._SEQUENCES, "catalan"]),
          "--upto", _size(300, cli.MAX_SEQ_UPTO + 1)),
    _argv("enumerate", "--length", _size(9, oracle.MAX_ENUM_LENGTH + 1)),
    _argv("table", "--max-n", _size(25, cli.MAX_TABLE_N + 1)),
    _argv("verify", "--max-len", _size(6, oracle.MAX_ENUM_LENGTH + 1)),
    st.lists(st.text(max_size=12), max_size=4))


@settings(deadline=None, max_examples=300)
@given(_ARGVS)
def test_any_argv_exits_0_1_or_2_without_a_traceback(argv):
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert sys.get_int_max_str_digits() == limit
