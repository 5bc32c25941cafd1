"""Command-line interface: subcommands, output formats, exit codes, guards."""
import json

import pytest

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


def test_oracle_match_exits_zero(shape_file, capsys, monkeypatch):
    monkeypatch.setenv("QFV_THREADS", "1")
    rc = main(
        ["oracle", "--shape", shape_file(P1), "--filtration", "1,1", "--primes", "2,3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "p=2: count=3 poincare_at_p=3 match=yes" in out
    assert "p=3: count=4 poincare_at_p=4 match=yes" in out


def test_oracle_mismatch_exits_four(shape_file, capsys):
    rc = main(
        ["oracle", "--shape", shape_file(S21), "--filtration", "1,1,1", "--primes", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 4
    assert "match=NO" in out
    assert "cell [[2,3],[1]]: expected 4 found 2  <-- mismatch" in out


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
    "command", [["betti", "--filtration", "1"], ["kato"]], ids=["betti", "kato"]
)
def test_huge_cycle_length_exits_three(shape_file, capsys, command):
    # per-vertex tables of 10^15 entries exceed any address space, so the
    # allocation fails at once instead of filling memory
    path = shape_file({"n": 10**15, "rows": []})
    rc = main([command[0], "--shape", path] + command[1:])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "error: out of memory\n"


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


def test_invalid_thread_env_exits_one(shape_file, capsys, monkeypatch):
    monkeypatch.setenv("QFV_THREADS", "zero")
    rc = main(["oracle", "--shape", shape_file(P1), "--filtration", "1,1"])
    assert rc == 1
    assert "QFV_THREADS" in capsys.readouterr().err


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
