import json
import sys

import pytest

from motzkin import cli, sequences, weights

from reference_table import ROWS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank(capsys):
    code, out, _ = run(capsys, "rank", "((00)0(0()))")
    assert code == 0
    assert out == "9763\n"


def test_unrank(capsys):
    code, out, _ = run(capsys, "unrank", "5")
    assert code == 0
    assert out == "(0)0\n"


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


def test_add_and_sub(capsys):
    code, out, _ = run(capsys, "add", "()0000000", "(0())0")
    assert (code, out) == (0, "()0(0())0\n")
    code, out, _ = run(capsys, "sub", "()0(0())0", "(0())0")
    assert (code, out) == (0, "()0000000\n")


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


def test_table_small(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4")
    assert code == 0
    rows = _parse_table(out)
    assert len(rows) == 6
    assert rows[5] == (6, 4, 3, "()00", 4, (7, 6, 3, None, None, None))


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


@pytest.mark.parametrize("argv, fragment", [
    (["rank", "(()"], "unbalanced"),
    (["rank", "0()"], "not canonical"),
    (["add", "(00)", "()"], "position 4"),
    (["sub", "(())", "()"], "position 3"),
    (["unrank", "-3"], "nonnegative"),
    (["compose", "--length", "6", "--pair", "2,3"], "position 1"),
    (["enumerate", "--length", "40"], "guard"),
    (["verify", "--max-len", "0"], "n >= 1"),
])
def test_domain_errors_exit_1(capsys, argv, fragment):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["unrank", "twelve"],
    ["seq", "motzkin"],
    ["compose", "--length", "6", "--pair", "junk"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, dest, maximum", [
    (["seq", "motzkin", "--upto"], "upto", cli.MAX_SEQ_UPTO),
    (["table", "--max-n"], "max_n", cli.MAX_TABLE_N),
    (["compose", "--pair", "1,2", "--length"], "length", cli.MAX_COMPOSE_LENGTH),
])
def test_sizes_over_the_maximum_are_usage_errors_naming_it(capsys, argv, dest, maximum):
    assert getattr(cli.build_parser().parse_args(argv + [str(maximum)]), dest) == maximum
    for bad, message in ((maximum + 1, f"{maximum + 1} is over the maximum of {maximum}"),
                         ("1.5", "invalid int value: '1.5'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [str(bad)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(message)


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


def test_unrank_index_past_the_int_str_limit_names_the_limit(capsys):
    # The CLI's own bound decides, not Python's digit limit.
    with pytest.raises(SystemExit) as exc:
        cli.main(["unrank", "7" * (cli.MAX_INDEX_DIGITS + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        f"a value of {cli.MAX_INDEX_DIGITS + 1} characters is over the "
        f"{cli.MAX_INDEX_DIGITS}-character limit")
    assert "invalid int value" not in err
    assert "77" not in err


_LONG = "7" * 5000


@pytest.mark.parametrize("argv", [
    ["unrank", "7" * (cli.MAX_INDEX_DIGITS + 1)],
    ["compose", "--pair", "1,2", "--length", _LONG],
    ["compose", "--length", "6", "--pair", "1," + _LONG],
    ["compose", "--length", "6", "--pair", _LONG + ",2"],
    ["seq", "motzkin", "--upto", _LONG],
    ["enumerate", "--length", _LONG],
    ["table", "--max-n", _LONG],
    ["verify", "--max-len", _LONG],
    # Under Python's default digit limit: these were read, then echoed in full.
    ["enumerate", "--length", "7" * 4000],
    ["verify", "--max-len", "7" * 4000],
    ["compose", "--length", "6", "--pair", "1," + "7" * 4000],
])
def test_every_integer_argument_past_the_int_str_limit_is_a_short_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 400
    bound = cli.MAX_INDEX_DIGITS if argv[0] == "unrank" else cli.MAX_INTEGER_CHARS
    assert f"characters is over the {bound}-character limit" in err
    assert "invalid int value" not in err
    assert "77" not in err


@pytest.mark.parametrize("argv, message", [
    (["seq", "motzkin", "--upto", "7" * 4300],
     "a value of 4300 characters is over the 80-character limit"),
    (["unrank", "x" * 4000], "invalid int value: a value of 4000 characters"),
    (["compose", "--length", "6", "--pair", "7" * 5000],
     "expected open,close positions like 3,7 (got a value of 5000 characters)"),
])
def test_long_values_under_the_int_str_limit_are_named_by_their_length(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 400
    assert err.splitlines()[-1].endswith(message)


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


def test_the_digit_limit_is_restored_after_a_failed_request(capsys):
    limit = sys.get_int_max_str_digits()
    code, _, err = run(capsys, "rank", "(()")
    assert code == 1 and err.startswith("error: ")
    assert sys.get_int_max_str_digits() == limit


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
