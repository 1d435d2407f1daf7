"""Command line interface: exit codes, output formats, determinism."""

import json

import pytest

from vtl.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_default_passes(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert code == 0
    assert "summary:" in out
    assert "fail=0" in out


def test_verify_diagram_generic_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--algebra", "vtl", "--rep", "diagram", "--n", "3",
        "--lambda", "5/2",
    )
    assert code == 0
    assert "[pass] vTL" in out
    assert "negative_controls=0" in out


def test_verify_flat_model_with_both_coefficients_negative(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--algebra", "utl", "--rep", "matrix", "--n", "3",
        "--dim", "2", "--a", "-1", "--b", "-1",
    )
    assert code == 0
    assert "[expected-nonzero] vTL" in out
    assert "[pass] fstar" in out


def test_verify_json_is_byte_stable(capsys):
    args = (
        "verify", "--algebra", "wtl", "--rep", "diagram", "--n", "3",
        "--lambda", "2", "--c", "1", "--format", "json",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["report_version"] == 1
    assert report["summary"]["fail"] == 0
    assert report["algebra"] == "wtl"
    assert out1.endswith("\n")


def test_verify_matrix_lambda_must_match_dim(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--rep", "matrix", "--dim", "2", "--lambda", "3"
    )
    assert code == 2
    assert "forces lambda" in err


def test_degenerate_parameters_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--a", "1", "--b", "0", "--c", "1", "--lambda", "2"
    )
    assert code == 2
    assert "refusing" in err


def test_solve_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "--lambda", "5/2")
    assert code == 0
    assert "b_plus = -1/2" in out
    assert "b_minus = -2" in out
    code, out, _ = run_cli(capsys, "solve", "--lambda", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["product"] == {
        "x_num": 1, "x_den": 1, "y_num": 0, "y_den": 1, "D_num": 0, "D_den": 1,
    }
    assert obj["b_plus"]["D_num"] == 5


def test_eval_conjugated_cupcap(capsys):
    code, out, _ = run_cli(capsys, "eval", "--word", "v1 v2 e1 v2 v1", "--n", "3")
    assert code == 0
    assert "T2" in out and "T3" in out  # lands on the site-2 cup


def test_eval_matrix_word(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--word", "e1 e1", "--n", "2", "--rep", "matrix",
        "--dim", "2", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["rows"] == 4
    # e^2 = 2e at d=2: entries are 0 or 2
    flat = {tuple(e) for e in obj["matrix"]["entries"]}
    assert flat <= {(0, 1, 0, 1), (2, 1, 0, 1)}
    code, out, _ = run_cli(
        capsys, "eval", "--word", "e1 e1", "--n", "2", "--rep", "matrix",
        "--dim", "2",
    )
    assert code == 0
    assert "trace = 4" in out
    assert "nonzero entries = 4" in out


def test_eval_braid_inverse_word(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--word", "r1 r1^-1", "--n", "3", "--lambda", "5/2",
        "--b", "b_minus",
    )
    assert code == 0
    assert "T1" in out


def test_eval_non_invertible_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--word", "e1^0", "--n", "3"
    )
    assert code == 2  # parse error first
    code, _, err = run_cli(
        capsys, "eval", "--word", "r1 r1^-1", "--n", "3", "--lambda", "2",
        "--a", "0", "--b", "1", "--c", "0",
    )
    assert code == 1
    assert "invert" in err.lower()


def test_trace_value(capsys):
    code, out, _ = run_cli(
        capsys, "trace", "--word", "e1 e1", "--n", "3", "--lambda", "7"
    )
    assert code == 0
    assert "343" in out


def test_bad_word_reports_position(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 0
    code, _, err = run_cli(capsys, "eval", "--word", "e1 q2", "--n", "3")
    assert code == 2
    assert "q2" in err


def test_unparsable_rational_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lambda", "two"])
    assert exc.value.code == 2


def test_oversized_tensor_space_exits_two(capsys):
    """d^n = 4^8 is refused before any matrix is built."""
    for argv in (
        ("verify", "--rep", "matrix", "--n", "8", "--dim", "4"),
        ("eval", "--word", "e1 v2", "--rep", "matrix", "--n", "8", "--dim", "4"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the cap" in err
