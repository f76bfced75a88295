import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ctring
from ctring.cli import build_parser, composition, main


def run_cli(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            status = main(argv)
        finally:
            sys.stdin = old
    else:
        status = main(argv)
    out = capsys.readouterr().out
    return status, out


def test_composition_parser():
    assert composition("3,2") == (3, 2)
    assert composition("2^30") == (2,) * 30
    assert composition("4,2^3,1") == (4, 2, 2, 2, 1)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        composition("3,x")
    with pytest.raises(argparse.ArgumentTypeError):
        composition("-1,2")
    # int() would read all of these
    for text in ("1_0", "+3", "3^+2", "\u0663", "2^1_0"):
        with pytest.raises(argparse.ArgumentTypeError):
            composition(text)
    assert composition(" 3 ^ 2 , 1") == (3, 3, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["zigzag", "--matrix", "1_0 2"],
        ["rsk", "--matrix", "1 +2"],
        ["zigzag", "--matrix", "\u0663 1"],
        ["hilbert", "--alpha", "1_0", "--beta", "10"],
        ["hilbert", "--alpha", "\u0663", "--beta", "3"],
        ["conjectures", "--max-n", "1_0"],
        ["sweep", "--max-len", "+2"],
        ["figure1", "--family", "+1"],
    ],
    ids=[
        "matrix-underscore",
        "matrix-plus",
        "matrix-unicode-digit",
        "composition-underscore",
        "composition-unicode-digit",
        "count-underscore",
        "count-plus",
        "family-plus",
    ],
)
def test_integer_inputs_take_ascii_digits_only(capsys, argv):
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        status = exc.code
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""


def test_usage_error_names_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--alpha", "3,x", "--beta", "2,2,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alpha" in err and "malformed composition" in err


def test_zigzag_route_checks_margins_before_counting(capsys):
    # the zigzag route counts degrees into a list sized by the tables, so
    # unequal margins stay a usage error however large n is, and one table
    # of a huge n is degree 0 alone
    argv = ["hilbert", "--alpha", "100000000000", "--beta", "1", "--method", "zigzag"]
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert json.loads(captured.err) == {"error": "row and column sums must agree"}
    argv[4] = "100000000000"
    status, out = run_cli(capsys, argv)
    assert status == 0 and json.loads(out)["coeffs"] == ["1"]


def test_hilbert_json(capsys):
    status, out = run_cli(capsys, ["hilbert", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 0
    assert json.loads(out) == {
        "alpha": [3, 2],
        "beta": [2, 2, 1],
        "coeffs": ["1", "2", "2"],
    }


def test_csv_only_on_coefficient_commands(capsys):
    # --csv belongs to hilbert, ehrhart and figure1 alone; elsewhere it is a
    # usage error rather than a flag that silently prints JSON
    for argv in (
        ["verify", "--alpha", "2,1", "--beta", "1,1,1"],
        ["sweep", "--max-n", "2"],
        ["rsk", "--matrix", "1 0;0 1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--csv"])
        assert exc.value.code == 2
        assert "--csv" in capsys.readouterr().err
    for argv in (["ehrhart", "--alpha", "2,1", "--beta", "1,1,1"], ["figure1", "--family", "4"]):
        status, out = run_cli(capsys, argv + ["--csv"])
        assert status == 0 and out.split(",")[0] in ("degree", "m")


def test_hilbert_all_methods_agree(capsys):
    status, out = run_cli(
        capsys,
        ["hilbert", "--alpha", "3,2", "--beta", "2,2,1", "--method", "all"],
    )
    assert status == 0
    assert json.loads(out)["coeffs"] == ["1", "2", "2"]


def test_hilbert_csv(capsys):
    status, out = run_cli(
        capsys, ["hilbert", "--alpha", "3,2", "--beta", "2,2,1", "--csv"]
    )
    assert status == 0
    assert out.splitlines() == ["degree,coefficient", "0,1", "1,2", "2,2"]


def test_rsk_stdin(capsys):
    matrix = "1 2 0 1\n0 0 2 1\n3 0 1 1\n"
    status, out = run_cli(capsys, ["rsk", "--matrix", "-"], stdin=matrix)
    assert status == 0
    payload = json.loads(out)
    assert payload["P"] == [[1, 1, 1, 1, 2, 2, 3], [2, 3, 3, 3], [3]]
    assert payload["Q"] == [[1, 1, 1, 1, 3, 3, 4], [2, 2, 3, 4], [4]]
    assert payload["shape"] == [7, 4, 1]
    assert payload["zigzag"] == 7


def test_rsk_from_file(tmp_path, capsys):
    path = tmp_path / "matrix.txt"
    path.write_text("1 2 0 1\n0 0 2 1\n3 0 1 1\n")
    status, out = run_cli(capsys, ["rsk", "--matrix", str(path)])
    assert status == 0
    assert json.loads(out)["zigzag"] == 7


def test_rsk_from_json_matrix(capsys):
    blob = '{"rows": 1, "cols": 2, "entries": [[1, 2]]}'
    status, out = run_cli(capsys, ["rsk", "--matrix", "-"], stdin=blob)
    assert status == 0
    assert json.loads(out)["P"] == [[1, 1, 1]]


@pytest.mark.parametrize(
    "blob",
    [
        '{"rows": 1, "cols": 2}',
        '{"cols": 2, "entries": [[1, 2]]}',
        '{"rows": 1, "entries": [[1, 2]]}',
        '{"rows": 1, "cols": 1, "entries": 5}',
        '{"rows": 1, "cols": 2, "entries": [[1, null]]}',
        '{"rows": 1, "cols": 2, "entries": [[1, 2]]',
        '{"rows": 2, "cols": 2, "entries": [[1, 2]]}',
        '{"rows": 1, "cols": 2, "entries": [[1.9, 2]]}',
        '{"rows": 1, "cols": 2, "entries": [[1, true]]}',
        '{"rows": 1, "cols": 2, "entries": [[1.0, 2]]}',
        '{"rows": true, "cols": 2, "entries": [[10, 2]]}',
        '{"rows": 1, "cols": 2.0, "entries": [[10, 2]]}',
    ],
    ids=[
        "no-entries",
        "no-rows",
        "no-cols",
        "scalar",
        "null",
        "truncated",
        "dims",
        "float",
        "bool",
        "integral-float",
        "bool-rows",
        "float-cols",
    ],
)
def test_malformed_json_matrix_is_usage_error(tmp_path, capsys, blob):
    path = tmp_path / "f.json"
    path.write_text(blob)
    for command in ("rsk", "zigzag"):
        status = main([command, "--matrix", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert "error" in json.loads(captured.err)


def test_unreadable_matrix_is_usage_error(tmp_path, capsys):
    status = main(["rsk", "--matrix", str(tmp_path)])
    assert status == 2
    assert "error" in json.loads(capsys.readouterr().err)


def test_zigzag_inline(capsys):
    status, out = run_cli(
        capsys, ["zigzag", "--matrix", "1 2 0 1;0 0 2 1;3 0 1 1"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["zigzag"] == 7
    assert payload["witness"] == [[1, 1], [1, 2], [2, 3], [2, 4], [3, 4]]


def test_standard_basis(capsys):
    status, out = run_cli(
        capsys, ["standard-basis", "--alpha", "3,2", "--beta", "2,2,1"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["dimension"] == "5"
    assert payload["hilbert"] == ["1", "2", "2"]
    assert {tuple(map(tuple, m["entries"])) for m in payload["standard_monomials"]} == {
        ((0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (0, 1, 0)),
        ((0, 0, 0), (0, 1, 1)),
        ((0, 0, 0), (0, 2, 0)),
    }


def test_figure1(capsys):
    status, out = run_cli(capsys, ["figure1", "--family", "2", "--upto", "3"])
    assert status == 0
    assert json.loads(out)["coeffs"] == ["1", "841", "354061", "99222341"]


def test_verify_exit_code(capsys):
    status, out = run_cli(capsys, ["verify", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 0
    payload = json.loads(out)
    assert payload["standard_equals_matrix_ball"] is True


def test_line_over_its_margin_fails_verify(monkeypatch, capsys):
    # one extra matrix whose first column holds 3 against the margin 2: the
    # lifts no longer vanish on every table, and verify reports the failure,
    # though a good verify of the same margins has filled the line memo
    import ctring.quotient

    status, out = run_cli(capsys, ["verify", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 0 and json.loads(out)["lifts_vanish"] is True
    tables = ctring.quotient.contingency_tables
    bad = ((3, 0, 0), (0, 1, 1))
    monkeypatch.setattr(
        ctring.quotient, "contingency_tables", lambda a, b: tables(a, b) + (bad,)
    )
    model = ctring.quotient.QuotientModel((3, 2), (2, 2, 1))
    report = ctring.quotient.verify_associated_graded((3, 2), (2, 2, 1), model)
    assert report["lifts_vanish"] is False
    status, out = run_cli(capsys, ["verify", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 1
    assert json.loads(out)["lifts_vanish"] is False


SWEEP_N2_LEN2 = ["sweep", "--max-n", "2", "--max-len", "2"]


def test_zigzag_route_off_by_one_fails_hilbert_agreement(monkeypatch, capsys):
    # every nonzero table one short of its zigzag number shifts the zigzag
    # series of each pair with n > 0 (25 of the 29), and of no other route
    import ctring.quotient

    zigzag = ctring.quotient.zigzag_number
    monkeypatch.setattr(
        ctring.quotient,
        "zigzag_number",
        lambda t: zigzag(t) - 1 if any(map(any, t)) else zigzag(t),
    )
    status, out = run_cli(capsys, SWEEP_N2_LEN2)
    payload = json.loads(out)
    assert status == 1 and payload["pairs"] == 29
    assert len(payload["failures"]) == 25
    assert all(
        set(f) == {"alpha", "beta", "check"} and f["check"] == "hilbert-agreement"
        for f in payload["failures"]
    )
    assert payload["failures"][0] == {"alpha": [1], "beta": [1], "check": "hilbert-agreement"}
    assert payload["conjecture_violations"] == []


def test_identity_derived_matrix_fails_the_standard_basis(monkeypatch, capsys):
    # derived matrices replaced by the tables themselves: the standard
    # monomials differ from them whenever n > 0
    import ctring.quotient

    monkeypatch.setattr(ctring.quotient, "derived_matrix", lambda t: t)
    status, out = run_cli(capsys, ["verify", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 1
    assert json.loads(out) == {
        "dimension": 5,
        "dimension_match": True,
        "lifts_vanish": True,
        "standard_equals_matrix_ball": False,
        "tables": 5,
    }
    status, out = run_cli(capsys, SWEEP_N2_LEN2)
    failures = json.loads(out)["failures"]
    assert status == 1 and len(failures) == 25
    assert {f["check"] for f in failures} == {"standard-basis"}


def test_zero_lefschetz_element_is_a_conjecture_violation(monkeypatch, capsys):
    # a zero linear form kills every map of positive power: the reports name
    # it as data, and no command fails on it
    import ctring.quotient
    from ctring.polys import Poly

    monkeypatch.setattr(
        ctring.quotient,
        "lefschetz_element",
        lambda alpha, beta: Poly(len(alpha) * len(beta)),
    )
    status, out = run_cli(capsys, ["lefschetz", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 0 and json.loads(out)["violations"] == [0]
    status, out = run_cli(capsys, SWEEP_N2_LEN2)
    payload = json.loads(out)
    assert status == 0 and payload["failures"] == []
    assert payload["conjecture_violations"] == [
        {"alpha": [1, 1], "beta": [1, 1], "conjecture": "lefschetz", "k": 0}
    ]
    status, out = run_cli(capsys, ["conjectures", "--lefschetz-n", "3"])
    payload = json.loads(out)
    assert status == 0 and payload["total_violations"] == 5
    assert len(payload["violations"]["lefschetz"]) == 5


def test_verify_and_sweep_build_each_model_once(monkeypatch, capsys):
    # the CLI and experiments import QuotientModel from ctring.quotient when
    # they run, so the one patch there reaches every build
    import ctring.quotient

    built = []

    class Counting(ctring.quotient.QuotientModel):
        def __init__(self, alpha, beta):
            built.append((alpha, beta))
            super().__init__(alpha, beta)

    monkeypatch.setattr(ctring.quotient, "QuotientModel", Counting)
    status, _ = run_cli(capsys, ["verify", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 0 and built == [((3, 2), (2, 2, 1))]
    built.clear()
    status, out = run_cli(capsys, ["sweep", "--max-n", "2", "--max-len", "2"])
    assert status == 0 and len(built) == json.loads(out)["pairs"]


def test_verify_and_sweep_enumerate_each_pair_once(capsys):
    # verify asks for the tables of its pair twice and a sweep record three
    # times; every request after the first is served from the memo
    from ctring.tables import _contingency_tables

    _contingency_tables.cache_clear()
    status, _ = run_cli(capsys, ["verify", "--alpha", "3,2", "--beta", "2,2,1"])
    info = _contingency_tables.cache_info()
    assert status == 0 and (info.misses, info.hits) == (1, 1)
    _contingency_tables.cache_clear()
    status, out = run_cli(capsys, ["sweep", "--max-n", "2", "--max-len", "2"])
    pairs = json.loads(out)["pairs"]
    info = _contingency_tables.cache_info()
    assert status == 0 and (info.misses, info.hits) == (pairs, 2 * pairs)


def test_lefschetz(capsys):
    status, out = run_cli(capsys, ["lefschetz", "--alpha", "3,2", "--beta", "2,2,1"])
    assert status == 0
    payload = json.loads(out)
    assert payload["min_zigzag"] == 3
    assert payload["violations"] == []


def test_frobenius(capsys):
    status, out = run_cli(capsys, ["frobenius", "--mu", "3,2", "--nu", "2,2,1"])
    assert status == 0
    payload = json.loads(out)
    dims = [entry["dimension"] for entry in payload["decomposition"]]
    assert dims == ["1", "2", "2"]


def test_frobenius_output_is_pinned(capsys):
    # n = 10: the h-images of 2^3 1^4 count the multiset partitions of every
    # content of 10, up to 3150 of them for 1^10
    mu = "2,2,2,1,1,1,1"
    status, out = run_cli(capsys, ["frobenius", "--mu", mu, "--nu", mu])
    assert status == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "a39c12e46d4ca756fca820d6492c0fa14ee385c68dbbf03c6698e70d43a26398"
    )


def test_ehrhart(capsys):
    status, out = run_cli(
        capsys, ["ehrhart", "--alpha", "3,2", "--beta", "2,2,1", "--upto", "1"]
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["series"][0]["coeffs"] == ["1"]
    assert payload["series"][1]["coeffs"] == ["1", "2", "2"]


def test_conjectures_small(capsys):
    status, out = run_cli(
        capsys,
        [
            "conjectures",
            "--max-n",
            "4",
            "--lefschetz-n",
            "3",
            "--dominance-n",
            "3",
        ],
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["total_violations"] == 0


def test_sweep(capsys):
    status, out = run_cli(capsys, ["sweep", "--max-n", "4", "--max-len", "2"])
    assert status == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["conjecture_violations"] == []
    assert payload["pairs"] == sum((n + 2) ** 2 for n in range(5))


def test_sweep_vacuous(capsys):
    status, out = run_cli(capsys, ["sweep", "--max-n", "0", "--max-len", "2"])
    assert status == 0
    assert json.loads(out)["failures"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--family", "1", "--upto", "-2"],
        ["sweep", "--max-n", "-3"],
        ["sweep", "--max-len", "0"],
        ["ehrhart", "--alpha", "3,2", "--beta", "2,2,1", "--upto", "-1"],
        ["conjectures", "--max-n", "-1"],
    ],
    ids=["figure1", "sweep-max-n", "sweep-max-len", "ehrhart", "conjectures"],
)
def test_negative_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "expected an integer >=" in captured.err


MARGINS_332_2222 = ["--alpha", "3,3,2", "--beta", "2,2,2,2"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["sweep", "--max-n", "3", "--max-len", "3"],
            "197fc814cd3bb16c6016e00e425c05cf87e4ba54198ac02b87411c7dc8625672",
        ),
        (
            ["conjectures", "--max-n", "6", "--lefschetz-n", "4", "--dominance-n", "4"],
            "59eb49da58117ae538359da17a9c6d9d4c2bd2f4f11aea8e890f748fc4e61b3d",
        ),
        (
            ["standard-basis", *MARGINS_332_2222],
            "b035969885689c33da84c4c3acedef868ae618019dd6fafa93dc1e8e8ac6a89b",
        ),
        (
            ["verify", *MARGINS_332_2222],
            "f845ac663bf24e4c05eea30f78a8fb8c7e570b3ac4bcdc2f9ba42b2b6a4c5bab",
        ),
        (
            ["lefschetz", *MARGINS_332_2222],
            "39220948654ddf6e7ebef6f21a2a07378c2ad8fd107ce88414b48c7fca59756c",
        ),
        (
            ["hilbert", *MARGINS_332_2222, "--method", "all"],
            "adc223db5d22a2916dba3c29ac85a0592fc67049d19707c9ecaafa80b85510f7",
        ),
    ],
    ids=[
        "sweep",
        "conjectures",
        "standard-basis",
        "verify",
        "lefschetz",
        "hilbert-all",
    ],
)
def test_scan_output_is_pinned(capsys, argv, digest):
    status, out = run_cli(capsys, argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_repeated_main_calls_do_not_share_flags(capsys):
    argv = ["hilbert", "--alpha", "3,2", "--beta", "2,2,1"]
    _, csv_out = run_cli(capsys, argv + ["--csv"])
    _, json_out = run_cli(capsys, argv)
    assert csv_out.splitlines()[0] == "degree,coefficient"
    assert json.loads(json_out)["coeffs"] == ["1", "2", "2"]


def test_determinism(capsys):
    _, first = run_cli(capsys, ["hilbert", "--alpha", "2,2", "--beta", "2,1,1"])
    _, second = run_cli(capsys, ["hilbert", "--alpha", "2,2", "--beta", "2,1,1"])
    assert first == second


def test_runs_leave_no_persisted_state(tmp_path):
    # fresh processes, as a user would run them: nothing is written between
    # runs, so the second run of each command answers exactly as the first,
    # and a CTRING_CACHE_DIR left over from older versions stays empty
    env = {
        **os.environ,
        "CTRING_CACHE_DIR": str(tmp_path),
        "PYTHONPATH": str(Path(ctring.__file__).resolve().parents[1]),
    }
    hilbert = ["hilbert", "--alpha", "3,3", "--beta", "2,2,2"]
    commands = [
        (hilbert, ["1", "2", "3", "1"]),
        (["figure1", "--family", "2"], ["1", "841", "354061", "99222341"]),
        (hilbert + ["--method", "all"], ["1", "2", "3", "1"]),
    ]

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ctring.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)["coeffs"]

    for _ in range(2):
        for argv, expected in commands:
            assert run(argv) == expected
    assert list(tmp_path.iterdir()) == []


def run_failing(capsys, argv):
    """Status, stdout and the stderr JSON object of a run that must fail."""
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, json.loads(captured.err)


@pytest.mark.parametrize("shift", [1, -1], ids=["never-converges", "overshoots"])
def test_quotient_dimension_mismatch_is_a_failed_check(monkeypatch, capsys, shift):
    # a table count off by one makes QuotientModel's own dimension check fail
    import ctring.quotient

    count = ctring.quotient.count_contingency_tables
    monkeypatch.setattr(
        ctring.quotient, "count_contingency_tables", lambda a, b: count(a, b) + shift
    )
    for command in ("standard-basis", "verify", "lefschetz"):
        status, out, err = run_failing(
            capsys, [command, "--alpha", "3,2", "--beta", "2,2,1"]
        )
        assert status == 1 and out == ""
        assert "table count" in err["error"]


def test_line_sums_leading_off_the_first_row_and_column_is_a_failed_check(
    monkeypatch, capsys
):
    # the quotient is built on the block of rows 2..k and columns 2..p, which
    # needs the line sums to lead at the first row and column; an order with
    # the last cell first leads them at the last row and column, and the
    # model's own check fails instead of a wrong basis or a crash.  The block
    # of each grid shape is memoised, so the memo is emptied when the patch
    # starts and again after it is undone
    import ctring.quotient
    from ctring.polys import Grid

    def last_cell_first(grid):
        return tuple((v,) for v in reversed(range(grid.nvars)))

    monkeypatch.setattr(Grid, "diagonal_order", last_cell_first)
    ctring.quotient._block.cache_clear()
    try:
        for command in ("verify", "standard-basis", "lefschetz"):
            status, out, err = run_failing(
                capsys, [command, "--alpha", "3,2", "--beta", "2,2,1"]
            )
            assert status == 1 and out == ""
            assert "(1, 3), (2, 1), (2, 2), (2, 3)" in err["error"]
            assert "not the first row and column" in err["error"]
        # one row is all first row, under any order
        status, out = run_cli(capsys, ["verify", "--alpha", "5", "--beta", "2,3"])
        assert status == 0 and json.loads(out)["dimension_match"]
    finally:
        monkeypatch.undo()
        ctring.quotient._block.cache_clear()


# stdout of margins whose block is empty (one row or one column), whose first
# part is 0, or whose n is 0, as the quotient on the whole grid gave it
EDGE_OUTPUTS = {
    "standard-basis --alpha 5 --beta 2,3": '{"alpha": [5], "beta": [2, 3], "dimension": "1", "hilbert": ["1"], "standard_monomials": [{"cols": 2, "entries": [[0, 0]], "rows": 1}]}',
    "verify --alpha 5 --beta 2,3": '{"dimension": 1, "dimension_match": true, "lifts_vanish": true, "standard_equals_matrix_ball": true, "tables": 1}',
    "lefschetz --alpha 5 --beta 2,3": '{"alpha": [5], "beta": [2, 3], "maps": [{"dim_source": 1, "dim_target": 1, "injective": true, "k": 0, "power": 0, "rank": 1}], "min_zigzag": 5, "violations": []}',
    "standard-basis --alpha 2,3 --beta 5": '{"alpha": [2, 3], "beta": [5], "dimension": "1", "hilbert": ["1"], "standard_monomials": [{"cols": 1, "entries": [[0], [0]], "rows": 2}]}',
    "verify --alpha 2,3 --beta 5": '{"dimension": 1, "dimension_match": true, "lifts_vanish": true, "standard_equals_matrix_ball": true, "tables": 1}',
    "lefschetz --alpha 2,3 --beta 5": '{"alpha": [2, 3], "beta": [5], "maps": [{"dim_source": 1, "dim_target": 1, "injective": true, "k": 0, "power": 0, "rank": 1}], "min_zigzag": 5, "violations": []}',
    "standard-basis --alpha 0,2,1 --beta 1,2": '{"alpha": [0, 2, 1], "beta": [1, 2], "dimension": "2", "hilbert": ["1", "1"], "standard_monomials": [{"cols": 2, "entries": [[0, 0], [0, 0], [0, 0]], "rows": 3}, {"cols": 2, "entries": [[0, 0], [0, 0], [0, 1]], "rows": 3}]}',
    "verify --alpha 0,2,1 --beta 1,2": '{"dimension": 2, "dimension_match": true, "lifts_vanish": true, "standard_equals_matrix_ball": true, "tables": 2}',
    "lefschetz --alpha 0,2,1 --beta 1,2": '{"alpha": [0, 2, 1], "beta": [1, 2], "maps": [{"dim_source": 1, "dim_target": 1, "injective": true, "k": 0, "power": 1, "rank": 1}], "min_zigzag": 2, "violations": []}',
    "standard-basis --alpha 2,1 --beta 0,3": '{"alpha": [2, 1], "beta": [0, 3], "dimension": "1", "hilbert": ["1"], "standard_monomials": [{"cols": 2, "entries": [[0, 0], [0, 0]], "rows": 2}]}',
    "verify --alpha 2,1 --beta 0,3": '{"dimension": 1, "dimension_match": true, "lifts_vanish": true, "standard_equals_matrix_ball": true, "tables": 1}',
    "lefschetz --alpha 2,1 --beta 0,3": '{"alpha": [2, 1], "beta": [0, 3], "maps": [{"dim_source": 1, "dim_target": 1, "injective": true, "k": 0, "power": 0, "rank": 1}], "min_zigzag": 3, "violations": []}',
    "standard-basis --alpha 0,0 --beta 0,0": '{"alpha": [0, 0], "beta": [0, 0], "dimension": "1", "hilbert": ["1"], "standard_monomials": [{"cols": 2, "entries": [[0, 0], [0, 0]], "rows": 2}]}',
    "verify --alpha 0,0 --beta 0,0": '{"dimension": 1, "dimension_match": true, "lifts_vanish": true, "standard_equals_matrix_ball": true, "tables": 1}',
    "lefschetz --alpha 0,0 --beta 0,0": '{"alpha": [0, 0], "beta": [0, 0], "maps": [{"dim_source": 1, "dim_target": 1, "injective": true, "k": 0, "power": 0, "rank": 1}], "min_zigzag": 0, "violations": []}',
}


@pytest.mark.parametrize("command", EDGE_OUTPUTS)
def test_edge_margins_print_what_the_whole_grid_gave(capsys, command):
    status, out = run_cli(capsys, command.split())
    assert status == 0 and out == EDGE_OUTPUTS[command] + "\n"


def test_hilbert_routes_disagreeing_is_a_failed_check(monkeypatch, capsys):
    # a route one off in degree 0: --method all exits 1 and reports every
    # route's series under its name
    import ctring.quotient
    import ctring.series

    def wrong(alpha, beta):
        series = ctring.series.hilbert_kostka(alpha, beta)
        return [series[0] + 1] + series[1:]

    monkeypatch.setattr(ctring.quotient, "hilbert_series_zigzag", wrong)
    argv = ["hilbert", "--alpha", "3,3", "--beta", "2,2,2", "--method", "all"]
    status, out = run_cli(capsys, argv)
    assert status == 1
    assert json.loads(out) == {
        "error": "hilbert methods disagree",
        "routes": {
            "kostka": ["1", "2", "3", "1"],
            "linalg": ["1", "2", "3", "1"],
            "zigzag": ["2", "2", "3", "1"],
        },
    }


def test_non_character_is_a_failed_check(monkeypatch, capsys):
    import ctring.psi
    import ctring.symfunc

    # psi: negated coset characters give negative invariant multiplicities;
    # both psi memos are emptied before the patch and again after it is undone
    coset_characters = ctring.psi._coset_characters

    def negated(mu):
        return {lam: tuple(-v for v in values) for lam, values in coset_characters(mu).items()}

    def empty_psi_memos():
        coset_characters.cache_clear()
        ctring.psi.invariants_frobenius_s.cache_clear()

    monkeypatch.setattr(ctring.psi, "_coset_characters", negated)
    empty_psi_memos()
    try:
        status, out, err = run_failing(capsys, ["frobenius", "--mu", "2,1", "--nu", "2,1"])
    finally:
        monkeypatch.undo()
        empty_psi_memos()
    assert status == 1 and out == ""
    assert "nonnegative ints" in err["error"]
    # symfunc: module class values raised by one on a single class are no
    # character; the patch changes what every module reads, not what the
    # psi memos keep, so a scan after it is undone reads the true values
    class_values = ctring.symfunc.TensorSymFunc.class_values

    def off_on_one_class(module):
        values = class_values(module)
        return (values[0] + 1,) + values[1:]

    monkeypatch.setattr(ctring.symfunc.TensorSymFunc, "class_values", off_on_one_class)
    argv = ["conjectures", "--max-n", "0", "--lefschetz-n", "0", "--dominance-n", "3"]
    try:
        status, out, err = run_failing(capsys, argv)
    finally:
        monkeypatch.undo()
    assert status == 1 and out == ""
    assert "not a character" in err["error"]


@pytest.mark.parametrize("exc", [ZeroDivisionError, RecursionError, KeyError])
def test_crash_is_not_a_failed_check(monkeypatch, capsys, exc):
    # ZeroDivisionError is an ArithmeticError and RecursionError a
    # RuntimeError: neither may read as a failed check or a usage error
    import ctring.matrixball

    def crash(matrix):
        raise exc("boom")

    monkeypatch.setattr(ctring.matrixball, "rsk", crash)
    status, out, err = run_failing(capsys, ["rsk", "--matrix", "1 0;0 1"])
    assert status == 3 and out == ""
    assert err["error"].startswith(exc.__name__) and "boom" in err["error"]
    assert "Traceback" in err["traceback"]


def test_closed_stdout_is_a_crash():
    # the reader closed the pipe before the payload is written: the write
    # fails, which is a crash (3), not a failed check (1), reported as one
    # JSON object on stderr with no second report at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ctring.cli", "sweep", "--max-n", "3", "--max-len", "2"],
            env={**os.environ, "PYTHONPATH": str(Path(ctring.__file__).resolve().parents[1])},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    error = json.loads(proc.stderr)
    assert error["error"].startswith("BrokenPipeError")
    assert "Exception ignored" not in proc.stderr


def _readme_commands():
    """Each ctring command of the README's usage block as an argv, `#`
    comments dropped, an optional `[--flag]` once with it and once without."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["ctring"]:
                continue
            optional = [a for a in argv if a.startswith("[")]
            plain = [a for a in argv[1:] if a not in optional]
            commands.append(plain)
            if optional:
                commands.append(plain + [a.strip("[]") for a in optional])
    return commands


README_COMMANDS = _readme_commands()


def test_readme_lists_every_subcommand():
    usage = build_parser().format_usage()
    subcommands = set(re.search(r"\{(.*?)\}", usage).group(1).split(","))
    assert len(subcommands) == 11
    assert {argv[0] for argv in README_COMMANDS} == subcommands


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_runs(capsys, argv):
    stdin = "1 2 0 1\n0 0 2 1\n3 0 1 1\n" if "-" in argv else None
    status, out = run_cli(capsys, argv, stdin=stdin)
    assert status == 0, out
    assert isinstance(json.loads(out), dict)


# the ctring modules a call loads: import ctring.cli alone, then what each
# subcommand adds by importing where it runs (PROBE prints them after main())
CLI_MODULES = {"ctring", "ctring.cli", "ctring.errors", "ctring.partitions", "ctring.tables"}
MODEL_MODULES = {"ctring.linalg", "ctring.matrixball", "ctring.polys", "ctring.quotient"}
VERDICT_MODULES = {"ctring.experiments", "ctring.series"}
CHARACTER_MODULES = {"ctring.psi", "ctring.symfunc"}
SUBCOMMAND_MODULES = {
    "hilbert": VERDICT_MODULES,
    "rsk": {"ctring.matrixball"},
    "zigzag": {"ctring.matrixball"},
    "standard-basis": MODEL_MODULES,
    "verify": MODEL_MODULES | VERDICT_MODULES,
    "frobenius": CHARACTER_MODULES,
    "lefschetz": MODEL_MODULES | VERDICT_MODULES,
    "conjectures": MODEL_MODULES | VERDICT_MODULES | CHARACTER_MODULES,
    "ehrhart": {"ctring.series"},
    "figure1": {"ctring.series"},
    "sweep": MODEL_MODULES | VERDICT_MODULES,
}
PROBE = (
    "import contextlib, io, sys\n"
    "import ctring.cli\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        ctring.cli.main(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'ctring')))\n"
)


def loaded_modules(argv, stdin=None) -> set:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(Path(ctring.__file__).resolve().parents[1])},
        input=stdin,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_importing_the_cli_loads_only_what_every_subcommand_reads():
    assert loaded_modules([]) == CLI_MODULES


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_subcommand_loads_only_the_modules_it_runs(argv):
    stdin = "1 2 0 1\n0 0 2 1\n3 0 1 1\n" if "-" in argv else None
    expected = CLI_MODULES | SUBCOMMAND_MODULES[argv[0]]
    if argv[0] == "hilbert" and "--method" in argv:  # every route, the linear algebra too
        expected |= MODEL_MODULES
    loaded = loaded_modules(argv, stdin)
    assert "ctring.onerow" not in loaded
    assert loaded == expected
