"""Command-line interface: subcommands, output formats, exit codes, guards."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_grid
from qfv import Shape, cli, ffmod, tableaux
from qfv.cli import main

P1 = {"n": 1, "rows": [{"socle": 1, "len": 1}, {"socle": 1, "len": 1}]}
S21 = {"n": 1, "rows": [{"socle": 1, "len": 2}, {"socle": 1, "len": 1}]}
UNIT7 = {"n": 1, "rows": [{"socle": 1, "len": 1}] * 7}
BIG_ROW = {"n": 1, "rows": [{"socle": 1, "len": 13}]}


@pytest.fixture
def shape_file(tmp_path):
    def write(data, name="shape.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def test_tableaux_table_output(shape_file, capsys):
    rc = main(["tableaux", "--shape", shape_file(P1), "--filtration", "1,1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count: 2" in out
    assert "tableau 1: [[2],[1]]" in out
    assert "d_tau: 0 1" in out
    assert "dim: 1" in out


def test_tableaux_json_output(shape_file, capsys):
    rc = main(
        [
            "tableaux",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 2
    assert data["tableaux"][0] == {
        "filling": [[2], [1]],
        "d_tau": [0, 1],
        "dim": 1,
    }


def test_betti_table_output(shape_file, capsys):
    rc = main(["betti", "--shape", shape_file(S21), "--filtration", "1 1 1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "count: 3" in out
    assert "poincare: 1 + q + q^2" in out


def test_betti_json_output(shape_file, capsys):
    rc = main(
        [
            "betti",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "count": 2,
        "poincare": {"0": 1, "1": 1},
    }


def test_filtration_from_file(shape_file, tmp_path, capsys):
    word = tmp_path / "word.json"
    word.write_text(json.dumps({"word": [1, 1]}))
    rc = main(["betti", "--shape", shape_file(P1), "--filtration", str(word)])
    assert rc == 0
    assert "count: 2" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["tableaux", "betti"])
@pytest.mark.parametrize(
    "token, ascii_token, n",
    [("1_1", "11", 11), ("\u0663", "3", 3), ("+1", "1", 1), ("\u00b2", "2", 2)],
    ids=["underscore", "arabic_indic", "plus", "superscript"],
)
def test_inline_filtration_takes_ascii_digits_only(
    shape_file, capsys, command, token, ascii_token, n
):
    # one box at the vertex the token would name: the ASCII spelling lists
    # its one cell, the other spelling exits 1 with one error line
    path = shape_file({"n": n, "rows": [{"socle": int(ascii_token), "len": 1}]})
    assert main([command, "--shape", path, "--filtration", ascii_token]) == 0
    capsys.readouterr()
    rc = main([command, "--shape", path, "--filtration", token])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_oracle_match_exits_zero(shape_file, capsys):
    rc = main(
        ["oracle", "--shape", shape_file(P1), "--filtration", "1,1", "--primes", "2,3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "p=2: count=3 poincare_at_p=3 match=yes" in out
    assert "p=3: count=4 poincare_at_p=4 match=yes" in out


def test_oracle_on_one_row_of_a_thousand_boxes(shape_file, capsys):
    # one flag, 1,000 steps deep: the flag walk keeps its own stack
    path = shape_file({"n": 1000, "rows": [{"socle": 1000, "len": 1000}]})
    word = ",".join(map(str, range(1000, 0, -1)))
    rc = main(["oracle", "--shape", path, "--filtration", word])
    captured = capsys.readouterr()
    assert rc == 0
    assert "p=2: count=1 poincare_at_p=1 match=yes" in captured.out
    assert "p=3: count=1 poincare_at_p=1 match=yes" in captured.out
    assert captured.err == ""


def test_oracle_mismatch_exits_four(shape_file, capsys):
    rc = main(
        ["oracle", "--shape", shape_file(S21), "--filtration", "1,1,1", "--primes", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 4
    assert "match=NO" in out
    assert "cell [[2,3],[1]]: expected 4 found 2  <-- mismatch" in out


def test_oracle_reports_classes_the_enumeration_did_not_predict(
    shape_file, capsys, monkeypatch
):
    # no small instance realizes a class outside the enumeration, so two
    # are added to what the CLI's classify_flags returns, out of order
    classify = cli.ffmod.classify_flags

    def with_extras(m, word):
        return {((3,), (1,)): 5, **classify(m, word), ((1,), (3,)): 2}

    monkeypatch.setattr(cli.ffmod, "classify_flags", with_extras)
    argv = ["oracle", "--shape", shape_file(P1), "--filtration", "1,1", "--primes", "2"]
    assert main(argv + ["--format", "json"]) == 4
    [report] = json.loads(capsys.readouterr().out)
    enumerated = [
        {"tableau": [list(row) for row in t.filling], "expected": 2 ** t.cell_dim(),
         "found": 2 ** t.cell_dim()}
        for t in tableaux.enumerate_tableaux(Shape.from_json(P1), (1, 1))
    ]
    assert report["per_cell"] == enumerated + [
        {"tableau": [[1], [3]], "expected": 0, "found": 2},
        {"tableau": [[3], [1]], "expected": 0, "found": 5},
    ]
    assert report["count"] == 10 and report["match"] is False
    assert main(argv) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p=2: count=10 poincare_at_p=3 match=NO"
    assert lines[-2:] == [
        "  cell [[1],[3]]: expected 0 found 2  <-- mismatch",
        "  cell [[3],[1]]: expected 0 found 5  <-- mismatch",
    ]


def test_oracle_json_reports_per_cell(shape_file, capsys):
    rc = main(
        [
            "oracle",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--primes",
            "2",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["p"] == 2
    assert reports[0]["count"] == 3
    assert reports[0]["match"] is True
    cells = {tuple(map(tuple, c["tableau"])): c for c in reports[0]["per_cell"]}
    assert cells[((2,), (1,))]["expected"] == 2


def test_oracle_count_is_the_flag_count_on_the_small_grid(shape_file, capsys):
    # the oracle's count is the sum of its classes; count_flags walks the
    # flags separately and must give the same total
    paths = {}
    for shape, word in small_grid():
        key = (shape.n, shape.rows)
        if key not in paths:
            paths[key] = shape_file(shape.to_json(), name=f"shape{len(paths)}.json")
        argv = ["oracle", "--shape", paths[key], "--format", "json",
                "--filtration", ",".join(map(str, word))]
        assert main(argv) in (0, 4)
        reports = json.loads(capsys.readouterr().out)
        assert [rep["p"] for rep in reports] == [2, 3]
        for rep in reports:
            flags = ffmod.count_flags(ffmod.build_module(shape, rep["p"]), word)
            assert rep["count"] == flags, (shape, word, rep["p"])
            assert sum(cell["found"] for cell in rep["per_cell"]) == flags


def test_oracle_guard_on_huge_enumerations(shape_file, capsys):
    rc = main(
        [
            "oracle",
            "--shape",
            shape_file(UNIT7),
            "--filtration",
            "1,1,1,1,1,1,1",
            "--primes",
            "3",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert "--force" in err


def test_oracle_rejects_unsupported_primes(shape_file, capsys):
    rc = main(
        ["oracle", "--shape", shape_file(P1), "--filtration", "1,1", "--primes", "6"]
    )
    assert rc == 1


@pytest.mark.parametrize(
    "primes",
    ["2,2", "3 2,3", "1_1", "\u0663", "2,\u0663", "+2", "2," + "0" * 5000 + "3"],
    ids=["twice", "twice_apart", "underscore", "arabic_indic", "arabic_indic_2", "plus",
         "past_int_limit"],
)
def test_oracle_rejects_repeated_or_non_ascii_primes(shape_file, capsys, primes):
    # int() alone reads 1_1 as 11 and the Arabic-Indic digit three as 3
    rc = main(
        ["oracle", "--shape", shape_file(P1), "--filtration", "1,1", "--primes", primes]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_PRIMES_FUZZ = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="0123457,_ +-\u0663\u00b2", max_size=10),
    st.lists(st.sampled_from(["2", "3", "5", "7", "02", "11"]), max_size=4).map(",".join),
)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(_PRIMES_FUZZ)
def test_oracle_primes_fuzz(primes):
    # any --primes string exits 0..4 without a traceback; it succeeds
    # exactly when it lists distinct supported primes in ASCII digits
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shape.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(P1, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(
                ["oracle", "--shape", path, "--filtration", "1,1", f"--primes={primes}"]
            )
    assert 0 <= rc <= 4
    assert "Traceback" not in err.getvalue()
    tokens = primes.replace(",", " ").split()
    valid = (
        tokens
        and all(tok.isascii() and tok.isdigit() for tok in tokens)
        and all(int(tok) in ffmod.SUPPORTED_PRIMES for tok in tokens)
        and len({int(tok) for tok in tokens}) == len(tokens)
    )
    if valid:
        assert rc == 0
        lines = out.getvalue().splitlines()
        reported = [line.split(":")[0] for line in lines if line.startswith("p=")]
        assert reported == [f"p={int(tok)}" for tok in tokens]
    else:
        assert rc == 1
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_gkm_membership_check(shape_file, tmp_path, capsys):
    member = tmp_path / "member.json"
    member.write_text(json.dumps(["x1", "x2"]))
    rc = main(
        ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(member)]
    )
    assert rc == 0
    assert "member: true" in capsys.readouterr().out

    loner = tmp_path / "loner.json"
    loner.write_text(json.dumps(["x1", "0"]))
    rc = main(
        ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(loner)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "member: false" in out
    assert "failing edge 0-1 on rows (1,2)" in out


MALFORMED_CHECKS = {
    "bools": [True, False],
    "nulls": [None, None],
    "lists": [[1], [2]],
    "comparison": ["x1 == x2", "x2"],
    "bitwise_and": ["x1 & x2", "x2"],
    "list_literal": ["[1]", "x2"],
    "division_by_variable": ["x1/x2", "x2"],
    "function_call": ["sin(x1)", "x2"],
    "eval_payload": [r'__import__("sys").stdout.write("EVALUATED\n") and 0', "x2"],
}


@pytest.mark.parametrize(
    "data", list(MALFORMED_CHECKS.values()), ids=list(MALFORMED_CHECKS)
)
def test_gkm_malformed_check_exits_one(shape_file, tmp_path, capsys, data):
    check = tmp_path / "check.json"
    check.write_text(json.dumps(data))
    rc = main(
        ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(check)]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: bad polynomial tuple:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("terms, rc", [(2000, 0), (3000, 1)])
def test_gkm_check_on_long_sums(shape_file, tmp_path, capsys, terms, rc):
    # 3000 terms are past what Python's parser can nest
    check = tmp_path / "check.json"
    check.write_text(json.dumps([" + ".join(["3*x1"] * terms), f"{3 * terms}*x2"]))
    argv = ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(check)]
    assert main(argv) == rc
    captured = capsys.readouterr()
    if rc == 0:
        assert captured.out == "member: true\n"
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: bad polynomial tuple:")
        assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text",
    ["9^9^9", "(x1+x2+x3)^300", "x1^(2^64)"],
    ids=["tower", "multi_term_power", "huge_exponent"],
)
def test_gkm_check_refuses_oversized_powers(shape_file, tmp_path, capsys, text):
    # exact powers past the size caps are refused before they are formed;
    # three unit rows give 6 nodes in x1..x3
    check = tmp_path / "check.json"
    check.write_text(json.dumps([text] + ["x1"] * 5))
    shape = shape_file({"n": 1, "rows": [{"socle": 1, "len": 1}] * 3})
    argv = ["gkm", "--shape", shape, "--filtration", "1,1,1", "--check", str(check)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad polynomial tuple:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_gkm_check_keeps_large_single_term_powers(shape_file, tmp_path, capsys):
    check = tmp_path / "check.json"
    check.write_text(json.dumps(["x1^1000000 + 2^100000", "x2**1000000 + 2**100000"]))
    argv = ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(check)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "member: true\n"


def test_gkm_dot_output(shape_file, capsys):
    rc = main(
        [
            "gkm",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--format",
            "dot",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("digraph gkm {")
    assert 'label="x1-x2"' in out


def test_gkm_json_output(shape_file, capsys):
    rc = main(
        [
            "gkm",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["t"] == 2
    assert len(data["nodes"]) == 2
    assert data["edges"][0]["rows"] == [1, 2]


def test_kato_table_output(shape_file, capsys):
    rc = main(["kato", "--shape", shape_file(S21)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gdim: t^4 + t^5 + t^6" in out
    assert "orbit_dim: 4" in out


def test_kato_json_output(shape_file, capsys):
    rc = main(["kato", "--shape", shape_file(P1), "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "coeffs": {"1": 1, "2": 1},
        "orbit_dim": 0,
    }


def test_betti_on_one_long_row_has_one_cell(shape_file, capsys):
    # 1500 end-box steps: deeper than Python's default recursion limit
    path = shape_file({"n": 1, "rows": [{"socle": 1, "len": 1500}]})
    rc = main(["betti", "--shape", path, "--filtration", ",".join(["1"] * 1500)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "count: 1\npoincare: 1\n"
    assert "Traceback" not in captured.err


def test_tableaux_on_one_long_row_has_one_cell(shape_file, capsys):
    # 1500 placement steps: deeper than Python's default recursion limit
    path = shape_file({"n": 1, "rows": [{"socle": 1, "len": 1500}]})
    word = ",".join(["1"] * 1500)
    rc = main(["tableaux", "--shape", path, "--filtration", word])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("count: 1\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command",
    [
        ["tableaux", "--filtration", "1,1"],
        ["betti", "--filtration", "1,1"],
        ["oracle", "--filtration", "1,1"],
        ["gkm", "--filtration", "1,1"],
        ["kato"],
    ],
    ids=["tableaux", "betti", "oracle", "gkm", "kato"],
)
def test_huge_cycle_length_exits_three(shape_file, capsys, command):
    # per-vertex tables of 10^15 entries exceed any address space, so the
    # allocation fails at once instead of filling memory; from 2^63 on the
    # table size does not even fit an index
    for n in (10**15, 2**63, 10**30):
        path = shape_file({"n": n, "rows": [{"socle": 1, "len": 2}]})
        rc = main([command[0], "--shape", path] + command[1:])
        captured = capsys.readouterr()
        assert rc == 3, n
        assert captured.err == "error: out of memory\n", n
        assert captured.out == "", n


def test_kato_on_a_long_cycle_with_one_box(shape_file, capsys):
    # the orbit dimension is counted from the rows, with no per-vertex
    # linear algebra, so a cycle of 10^6 vertices is cheap
    path = shape_file({"n": 10**6, "rows": [{"socle": 1, "len": 1}]})
    assert main(["kato", "--shape", path]) == 0
    assert capsys.readouterr().out == "gdim: 1\norbit_dim: 0\n"


def test_kato_guard_and_force(shape_file, capsys):
    path = shape_file(BIG_ROW)
    rc = main(["kato", "--shape", path])
    err = capsys.readouterr().err
    assert rc == 3
    assert "--force" in err
    rc = main(["kato", "--shape", path, "--force"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gdim: t^156" in out


def test_out_writes_file(shape_file, tmp_path, capsys):
    target = tmp_path / "result.txt"
    rc = main(
        [
            "betti",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--out",
            str(target),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert "poincare: 1 + q" in target.read_text()


def test_unwritable_out_exits_one(shape_file, tmp_path, capsys):
    target = tmp_path / "missing" / "result.txt"
    rc = main(
        [
            "tableaux",
            "--shape",
            shape_file(P1),
            "--filtration",
            "1,1",
            "--out",
            str(target),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_incompatible_filtration_exits_two(shape_file, capsys):
    rc = main(["betti", "--shape", shape_file(P1), "--filtration", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_malformed_shape_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["betti", "--shape", str(bad), "--filtration", "1"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


UNREADABLE_JSON = {
    # json.loads raises ValueError past Python's 4,300-digit int limit
    "long_integer": "[" + "1" * 5000 + ", 2]",
    # and RecursionError on deep nesting
    "deep_nesting": "[" * 100_000,
}


@pytest.mark.parametrize("command", ["gkm_check", "betti_shape"])
@pytest.mark.parametrize(
    "text", list(UNREADABLE_JSON.values()), ids=list(UNREADABLE_JSON)
)
def test_unreadable_json_exits_one(shape_file, tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "gkm_check":
        argv = ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(bad)]
    else:
        argv = ["betti", "--shape", str(bad), "--filtration", "1,1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: invalid JSON in {bad}:")
    assert captured.err.count("\n") == 1


def test_missing_file_exits_one(capsys):
    rc = main(["betti", "--shape", "/nonexistent.json", "--filtration", "1"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_bad_vertex_exits_one(shape_file, capsys):
    rc = main(["tableaux", "--shape", shape_file(P1), "--filtration", "9,9"])
    assert rc == 1
    assert "vertex 9" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["nonsense"]) == 1


def test_thread_env_is_ignored(shape_file, capsys, monkeypatch):
    # scripts may still set QFV_THREADS; nothing reads or checks it
    monkeypatch.setenv("QFV_THREADS", "zero")
    rc = main(["oracle", "--shape", shape_file(P1), "--filtration", "1,1"])
    assert rc == 0
    assert "match=yes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "data",
    [
        {"n": True, "rows": [{"socle": 1, "len": 1}]},
        {"n": 1, "rows": [{"socle": 1, "len": 2.7}]},
        {"n": 2, "rows": [{"socle": "2", "len": 1}]},
    ],
    ids=["bool_n", "float_len", "string_socle"],
)
def test_non_integer_shape_fields_exit_one(shape_file, capsys, data):
    rc = main(["betti", "--shape", shape_file(data), "--filtration", "1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: bad shape:")
    assert "must be an integer" in err
    assert "Traceback" not in err


# JSON values that are not integers
_KATO_FUZZ_JUNK = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(1, 3), max_size=2),
)
_KATO_FUZZ_ROW = st.fixed_dictionaries(
    {
        "socle": st.one_of(st.integers(1, 4), st.integers(-(10**30), 10**30)),
        # about one row in three is long enough to trip the box guard
        "len": st.one_of(st.integers(1, 3), st.integers(1, 3), st.integers(13, 10**30)),
    }
)


@st.composite
def _kato_fuzz_shape(draw):
    """A shape object, valid or with one fault: a bad or missing `n` or
    `rows`, a row that is not an object, or a bad or missing row field.
    n is small, up to 10^6 (per-vertex tables of that size are cheap), or
    2^63 and beyond, where no per-vertex table can be indexed and the run
    exits 3.  n from 10^7 to 10^12 is left out: there a per-vertex table
    really is allocated, gigabytes of it, instead of failing at once."""
    shape = {
        "n": draw(
            st.one_of(
                st.integers(1, 4), st.integers(5, 10**6), st.integers(2**63, 10**30)
            )
        ),
        "rows": draw(st.lists(_KATO_FUZZ_ROW, max_size=4)),
    }
    bad = st.one_of(_KATO_FUZZ_JUNK, st.integers(-2, 0))
    fault = draw(st.sampled_from([None, None, None, "n", "rows", "key", "row", "field"]))
    if fault == "n":
        shape["n"] = draw(bad)
    elif fault == "rows":
        shape["rows"] = draw(st.one_of(_KATO_FUZZ_JUNK, st.integers(), _KATO_FUZZ_ROW))
    elif fault == "key":
        del shape[draw(st.sampled_from(["n", "rows"]))]
    elif fault and shape["rows"]:
        i = draw(st.integers(0, len(shape["rows"]) - 1))
        if fault == "row":
            shape["rows"][i] = draw(st.one_of(_KATO_FUZZ_JUNK, st.integers()))
        else:
            key = draw(st.sampled_from(["socle", "len"]))
            if draw(st.booleans()):
                del shape["rows"][i][key]
            else:
                shape["rows"][i][key] = draw(bad)
    return shape


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_kato_fuzz_shape(), st.sampled_from(["table", "json"]))
def test_kato_shape_fuzz(data, fmt):
    # any shape object exits 0..4 without a traceback; on success the
    # orbit dimension is the group dimension minus dim End by linear algebra
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shape.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["kato", "--shape", path, "--format", fmt])
    assert 0 <= rc <= 4
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        text = out.getvalue()
        if fmt == "json":
            got = json.loads(text)["orbit_dim"]
        else:
            got = int(text.rsplit("orbit_dim: ", 1)[1])
        shape = Shape.from_json(data)
        group = sum(d * d for d in shape.dim_vector())
        assert got == group - ffmod.dim_end(shape)
    else:
        assert err.getvalue().startswith("error: ")


def test_tableaux_json_on_one_long_row_is_linear_per_entry(shape_file, capsys):
    # 1500 d_tau calls on one long row; that each one scans only the
    # smaller entries is checked by counting reads, in
    # test_d_tau_reads_only_the_entries_below_k
    path = shape_file({"n": 1, "rows": [{"socle": 1, "len": 1500}]})
    word = ",".join(["1"] * 1500)
    rc = main(["tableaux", "--shape", path, "--filtration", word, "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 0
    data = json.loads(captured.out)
    assert data["count"] == 1
    (tableau,) = data["tableaux"]
    assert tableau["d_tau"] == [0] * 1500
    assert tableau["dim"] == 0
    assert "Traceback" not in captured.err


_WORD_FUZZ_SHAPES = (
    P1,
    S21,
    {"n": 2, "rows": [{"socle": 1, "len": 2}, {"socle": 2, "len": 1}]},
    {"n": 3, "rows": [{"socle": 3, "len": 3}, {"socle": 2, "len": 2}]},
)
_WORD_FUZZ_JUNK = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(1, 3), max_size=2),
    st.sampled_from([0, -1, -(10**30), 10**30]),
)


@st.composite
def _word_fuzz_case(draw):
    """A shape and a word for it: compatible, of valid letters in the
    wrong counts, over-long, or with one junk letter."""
    data = draw(st.sampled_from(_WORD_FUZZ_SHAPES))
    shape = Shape.from_json(data)
    letters = [v for v, d in enumerate(shape.dim_vector(), start=1) for _ in range(d)]
    kind = draw(st.sampled_from(["compatible", "compatible", "letters", "long", "junk"]))
    if kind == "compatible":
        word = draw(st.permutations(letters))
    elif kind == "letters":
        word = draw(st.lists(st.integers(1, shape.n), max_size=shape.size + 2))
    elif kind == "long":
        word = [1] * draw(st.integers(shape.size + 1, 3000))
    else:
        word = list(draw(st.permutations(letters)))
        word[draw(st.integers(0, len(word) - 1))] = draw(_WORD_FUZZ_JUNK)
    return data, list(word)


def _write_word_case(tmp, data, word):
    """Write a word fuzz case's shape and word files; return their paths."""
    shape_path = os.path.join(tmp, "shape.json")
    word_path = os.path.join(tmp, "word.json")
    with open(shape_path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    with open(word_path, "w", encoding="utf-8") as fh:
        json.dump({"word": word}, fh)
    return shape_path, word_path


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_word_fuzz_case())
def test_filtration_word_fuzz(case):
    # any word file exits 0..4 without a traceback, the same for tableaux
    # and betti; on success both count the same cells
    data, word = case
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        shape_path, word_path = _write_word_case(tmp, data, word)
        for command in ("tableaux", "betti"):
            rc, out, err = _capture(
                [command, "--shape", shape_path, "--filtration", word_path,
                 "--format", "json"]
            )
            assert 0 <= rc <= 4
            assert "Traceback" not in err
            results[command] = (rc, out)
    assert results["tableaux"][0] == results["betti"][0]
    if results["tableaux"][0] == 0:
        tab = json.loads(results["tableaux"][1])
        assert tab["count"] == json.loads(results["betti"][1])["count"]


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_word_fuzz_case())
def test_gkm_word_fuzz(case):
    # any word file exits 0..4 without a traceback under every format of
    # gkm, with tableaux's exit code; on success the graph has one node per
    # tableau and each edge is listed from its lower-index end, where the
    # upper row's window holds the larger entry
    data, word = case
    with tempfile.TemporaryDirectory() as tmp:
        shape_path, word_path = _write_word_case(tmp, data, word)
        argv = ["--shape", shape_path, "--filtration", word_path, "--format"]
        tab_rc, tab_out, _ = _capture(["tableaux", *argv, "json"])
        results = {fmt: _capture(["gkm", *argv, fmt]) for fmt in ("table", "json", "dot")}
    for rc, _, err in results.values():
        assert rc == tab_rc
        assert 0 <= rc <= 4
        assert "Traceback" not in err
    if tab_rc == 0:
        graph = json.loads(results["json"][1])
        assert len(graph["nodes"]) == json.loads(tab_out)["count"]
        for e in graph["edges"]:
            assert e["a"] < e["b"]
            assert e["entries"][0] > e["entries"][1]
        table = results["table"][1].splitlines()
        assert table[:2] == [f"nodes: {len(graph['nodes'])}", f"edges: {len(graph['edges'])}"]
        assert results["dot"][1].count("->") == len(graph["edges"])


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(
    st.sampled_from(list(small_grid())),
    st.sampled_from(["table", "json"]),
    st.booleans(),
    st.booleans(),
)
def test_oracle_out_and_force_fuzz(case, fmt, to_file, force):
    # below the guard, --out and --force change neither the exit code nor
    # the report: --out writes exactly what the call without it prints
    shape, word = case
    with tempfile.TemporaryDirectory() as tmp:
        shape_path = os.path.join(tmp, "shape.json")
        out_path = os.path.join(tmp, "out.txt")
        with open(shape_path, "w", encoding="utf-8") as fh:
            json.dump(shape.to_json(), fh)
        argv = ["oracle", "--shape", shape_path, "--format", fmt,
                "--filtration", ",".join(map(str, word))]
        rc, out, err = _capture(argv)
        extra = (["--out", out_path] if to_file else []) + (["--force"] if force else [])
        rc2, out2, err2 = _capture(argv + extra)
        written = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                written = fh.read()
    assert rc in (0, 4) and rc2 == rc
    assert err == err2 == ""
    assert (out2, written) == (("", out) if to_file else (out, None))


def _poly_text(t):
    """Polynomial strings in x1..x(t+1), x(t+1) being one past the torus,
    from a small grammar that also reaches division by zero, non-constant
    and oversized exponents, unreadable decimals and stray names."""
    digit = st.integers(0, 9).map(str)
    name = st.sampled_from([f"x{k}" for k in range(1, t + 2)])
    leaves = st.one_of(digit, digit, name, name, st.sampled_from(["0.5", "2.0", "1e400", "y"]))
    ops = st.sampled_from([" + ", " - ", "*", "/", "^", "**"])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, ops, inner).map("".join),
            inner.map("({})".format),
            inner.map("-{}".format),
        ),
        max_leaves=6,
    )


def _check_entry(t):
    """One --check entry: mostly a grammar string, else an int, a float
    or JSON junk."""
    text = _poly_text(t)
    junk = st.one_of(
        st.none(),
        st.booleans(),
        st.text(max_size=4),
        st.lists(st.integers(0, 3), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
    )
    return st.one_of(text, text, text, text, st.integers(), st.floats(), junk)


# (shape, word, node count, entry strategy for x1..xt)
_CHECK_CASES = tuple(
    (data, word, nodes, _check_entry(t))
    for data, word, nodes, t in (
        (P1, "1,1", 2, 2),
        ({"n": 1, "rows": [{"socle": 1, "len": 1}] * 3}, "1,1,1", 6, 3),
    )
)


@st.composite
def _check_case(draw):
    """A shape, its word, and a --check list, mostly with one entry per
    node."""
    data, word, nodes, entry = draw(st.sampled_from(_CHECK_CASES))
    size = draw(st.sampled_from([nodes] * 5 + [0, nodes - 1, nodes + 1]))
    return data, word, draw(st.lists(entry, min_size=size, max_size=size))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_check_case())
def test_gkm_check_fuzz(case):
    # any --check list exits 0 with a verdict or 1 with one error line,
    # never with a traceback
    data, word, polys = case
    with tempfile.TemporaryDirectory() as tmp:
        shape_path = os.path.join(tmp, "shape.json")
        check_path = os.path.join(tmp, "check.json")
        with open(shape_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        with open(check_path, "w", encoding="utf-8") as fh:
            json.dump(polys, fh)
        rc, out, err = _capture(
            ["gkm", "--shape", shape_path, "--filtration", word, "--check", check_path]
        )
    assert rc in (0, 1)
    assert "Traceback" not in err
    if rc == 0:
        assert err == ""
        assert out.startswith(("member: true\n", "member: false\n"))
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# main() reuses one parser for the whole process; these calls check that
# nothing of one call's arguments reaches the next


@pytest.fixture
def cold_parser():
    # main() builds its parser anew on the next call, and this test's
    # parser does not outlive it
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _capture(argv):
    """(exit code, stdout, stderr) of one in-process main() call; --help
    ends in SystemExit, recorded by its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
    return rc, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    """(exit code, stdout, stderr) of `python -m qfv.cli` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "qfv.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_python_dash_m_qfv_runs_the_cli(shape_file):
    # `python -m qfv` needs no installed `qfv` script; importing the
    # package does not run it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, check=False
        )

    shown = run("-m", "qfv", "--help")
    assert shown.returncode == 0, shown.stderr
    assert "oracle" in shown.stdout
    malformed = run("-m", "qfv", "kato", "--shape", shape_file({"n": 1}))
    assert malformed.returncode == 1
    assert malformed.stderr.startswith("error: ") and "Traceback" not in malformed.stderr
    imported = run("-c", "import sys, qfv, qfv.cli; print('qfv.__main__' in sys.modules)")
    assert imported.stdout == "False\n", imported.stderr


def test_gkm_check_never_imports_sympy(shape_file, tmp_path):
    # sympy is a test-only dependency; the command line must not need it
    check = tmp_path / "check.json"
    check.write_text(json.dumps(["x1", "x2"]))
    argv = ["gkm", "--shape", shape_file(P1), "--filtration", "1,1", "--check", str(check)]
    script = (
        "import sys\n"
        "from qfv.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(rc, 'sympy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "member: true" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_main_builds_the_parser_once(shape_file, monkeypatch, cold_parser):
    builds = []
    original = cli.build_parser

    def counting_build_parser():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    path = shape_file(S21)
    calls = [
        ["kato", "--shape", path],
        ["betti", "--shape", path, "--filtration", "1,1,1"],
        ["nonsense"],
        ["kato", "--shape", path, "--format", "json"],
    ]
    assert [_capture(argv)[0] for argv in calls] == [0, 0, 1, 0]
    assert len(builds) == 1


def test_force_does_not_carry_over(shape_file, capsys, cold_parser):
    path = shape_file(BIG_ROW)
    assert main(["kato", "--shape", path, "--force"]) == 0
    capsys.readouterr()
    assert main(["kato", "--shape", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--force" in captured.err


def test_out_does_not_carry_over(shape_file, tmp_path, capsys, cold_parser):
    path = shape_file(P1)
    target = tmp_path / "result.txt"
    argv = ["betti", "--shape", path, "--filtration", "1,1"]
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    target.unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == "count: 2\npoincare: 1 + q\n"
    assert not target.exists()


def test_format_does_not_carry_over(shape_file, capsys, cold_parser):
    argv = ["kato", "--shape", shape_file(S21)]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["orbit_dim"] == 4
    assert main(argv) == 0
    assert capsys.readouterr().out == "gdim: t^4 + t^5 + t^6\norbit_dim: 4\n"


@pytest.mark.parametrize(
    "usage_error",
    [["nonsense"], ["kato"], ["betti", "--shape"]],
    ids=["unknown_command", "missing_shape", "shape_without_value"],
)
def test_usage_error_then_valid_call_match_fresh_processes(
    shape_file, usage_error, cold_parser
):
    valid = ["betti", "--shape", shape_file(S21), "--filtration", "1,1,1"]
    first, second = _capture(usage_error), _capture(valid)
    assert first[0] == 1
    assert second[0] == 0
    assert first == _fresh_process(usage_error)
    assert second == _fresh_process(valid)


def test_reused_parser_matches_a_fresh_parser(
    shape_file, tmp_path, monkeypatch, cold_parser
):
    # one process, one parser, every subcommand and every way out of
    # parse_args; each call must equal a call through a parser of its own
    p1 = shape_file(P1, "p1.json")
    s21 = shape_file(S21, "s21.json")
    big = shape_file(BIG_ROW, "big.json")
    check = tmp_path / "check.json"
    check.write_text(json.dumps(["x1*x2", "x1*x2"]))
    out = tmp_path / "out.txt"
    calls = [
        ["tableaux", "--shape", s21, "--filtration", "1,1,1"],
        ["tableaux", "--shape", s21, "--filtration", "1,1,1", "--format", "json",
         "--out", str(out)],
        ["betti", "--shape", s21, "--filtration", "1,1,1", "--format", "json"],
        ["betti", "--shape", s21, "--filtration", "1,1"],
        ["betti", "--shape", s21, "--filtration", "1,1,1", "--bogus"],
        ["oracle", "--shape", p1, "--filtration", "1,1", "--primes", "2"],
        ["oracle", "--shape", s21, "--filtration", "1,1,1", "--format", "json"],
        ["oracle", "--shape", p1, "--filtration", "1,1", "--primes", "4"],
        ["oracle", "--shape", p1, "--filtration", "1,1"],
        ["gkm", "--shape", p1, "--filtration", "1,1", "--format", "dot"],
        ["gkm", "--shape", p1, "--filtration", "1,1", "--check", str(check)],
        ["gkm", "--shape", p1, "--filtration", "1,1", "--format", "xml"],
        ["gkm", "--shape", p1, "--filtration", "1,1"],
        ["kato", "--shape", big, "--force"],
        ["kato", "--shape", big],
        ["kato", "--shape", s21, "--format", "json"],
        ["kato", "--shape", s21],
        ["kato"],
        ["kato", "--shape"],
        ["nonsense"],
        [],
        ["--help"],
        ["gkm", "--help"],
        ["kato", "--shape", s21],
    ]

    def run(argv):
        result = _capture(argv)
        written = out.read_text() if out.exists() else None
        if written is not None:
            out.unlink()
        return result, written

    reused = [run(argv) for argv in calls]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(argv) for argv in calls]
    for argv, got, want in zip(calls, reused, fresh):
        assert got == want, argv
    codes = [rc for (rc, _, _), _ in fresh]
    assert set(codes) == {0, 1, 2, 3, 4, "SystemExit(0)"}
