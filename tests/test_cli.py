"""Command line interface: exit codes, output formats, determinism."""

import hashlib
import json

import pytest

from vtl.cli import main
from vtl.rho import RhoParams
from vtl.verify import VerifyRequest, run_verify


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


@pytest.mark.parametrize("command", [
    ("verify",),
    ("eval", "--word", "r1 e2"),
])
def test_dim_is_refused_in_the_diagram_rep(capsys, command):
    """--dim belongs to the matrix rep; the diagram rep refuses it, given
    alone or beside --lambda, instead of ignoring it."""
    for extra in ((), ("--lambda", "2")):
        code, out, err = run_cli(
            capsys, *command, "--rep", "diagram", "--n", "3", "--dim", "3", *extra
        )
        assert (code, out) == (2, "")
        assert "--dim" in err and "matrix rep" in err
    code, _, _ = run_cli(capsys, *command, "--rep", "diagram", "--n", "3", "--lambda", "2")
    assert code == 0


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


@pytest.mark.parametrize(
    "flag, key, value",
    [("--a", "a", "-4/5"), ("--b", "b", "-4/5"), ("--c", "c", "-4/5"),
     ("--lambda", "lambda", "-5/2")],
)
def test_negative_fraction_as_a_separate_argument(capsys, flag, key, value):
    argv = ("eval", "--n", "3", "--word", "r1", "--format", "json")
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, f"{flag}={value}") == (0, out, "")
    num, den = map(int, value.split("/"))
    got = json.loads(out)["params"][key]
    assert (got["x_num"], got["x_den"]) == (num, den)


def test_matrix_verify_takes_its_dimension_from_lambda(capsys):
    """With no dimension given, run_verify's matrix rep has d = lambda."""
    report = run_verify(VerifyRequest("vtl", "matrix", 3, RhoParams.make(1, -1, 1, 3)))
    code, out, _ = run_cli(
        capsys, "verify", "--rep", "matrix", "--n", "3", "--dim", "3",
        "--a", "1", "--b", "-1", "--c", "1", "--format", "json",
    )
    assert code == 0 and report["ok"] and report["dim"] == 3
    assert out == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


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


_WORD5 = "v3 v1 r2 v1 r2^-1 r3 r1^-1 v2 r4 r1^-1 r3 r2^-1 r3 e2"
_WORD6 = "v4 v1 r1 v3 r2^-1 r5 r4^-1 r5 r1^-1 r3 r4^-1 e5 r5 v2"
_WORD7 = "v2 v5 r1 v3 r2^-1 r5 r4^-1 r6 r1^-1 r3 r4^-1 r5 v2 r6^-1 r2"

# sha256 of the JSON stdout, computed with rational parts stored as Fractions;
# the scalar storage may change, these bytes may not
GOLDEN = [
    (
        ("eval", "--word", "r1 r2^-1 e1 r1^-1 v2", "--n", "3", "--lambda", "3",
         "--c", "1/2"),
        "b6a63ec8209b3be9c2408baed9f09f57a325040394cee58b7fd6e040fc4964f4",
    ),
    (
        ("eval", "--rep", "matrix", "--n", "3", "--dim", "3", "--word",
         "r1 r2^-1 e1 r1^-1 v2", "--c", "1/2"),
        "d2c0d109ec6de7621a4b33542c6956f5fbcc641264fa28c8b06176ae78becee9",
    ),
    (
        ("eval", "--word", "r1 r2^-1 r1", "--n", "3", "--lambda", "7/2",
         "--c", "1/2"),
        "5e81566aeb6bc3be91336dcac5b1aca2bdf6cf79e0d72a2e96fca5f1aa3c4e1f",
    ),
    (
        ("verify", "--n", "4", "--lambda", "3", "--c", "1"),
        "68914a6e96ad2020c462edaf7f1ef42dcb334db6566de954187393127d89c466",
    ),
    (
        ("verify", "--n", "4", "--lambda", "5/2", "--b", "2", "--c", "3"),
        "56cedc817f31129d8b80237e863cd26528f0cdb5a618d382a2af03b6c6e359de",
    ),
    (
        ("verify", "--algebra", "utl", "--rep", "matrix", "--n", "3", "--dim",
         "2", "--a", "1", "--b", "-1", "--c", "1"),
        "9117b4b0bbd9e22e897573f24d3f08ab94ec9af3f74a1df6b7e9e4cba8205cbd",
    ),
    # sizes where most instances act on fewer strands than n, and negative
    # controls print residual norms counted at full size
    (
        ("verify", "--algebra", "utl", "--n", "6", "--lambda", "2", "--a", "1",
         "--b", "-1", "--c", "1"),
        "30c58e2eb089c8d14ea86982779894570f1a4118de42c99c128ca6ad46605066",
    ),
    (
        ("verify", "--algebra", "utl", "--rep", "matrix", "--n", "4", "--dim",
         "2", "--a", "1", "--b", "-1", "--c", "1"),
        "7c49c5d8197d09fc2e3bea70bcb60048bfafaeb43db21cb7c08a690b6e07b5c3",
    ),
    (
        ("verify", "--algebra", "utl", "--rep", "matrix", "--n", "4", "--dim",
         "3", "--a", "1", "--b", "-1", "--c", "1"),
        "88b7fd0b5eb77d82c00b2f1376b5941522e4919caadcc10c56c2c1bcfa725c9a",
    ),
    (
        ("verify", "--algebra", "wtl", "--n", "5", "--lambda", "5/2", "--b", "2",
         "--c", "3"),
        "55f6b42205f6ede1c801b25c49e9f9ac93aff2ff1dfda52b376905a7f01b71b6",
    ),
    # long diagram words shaped like the benchmark's: a v prefix, then rho
    # letters and their inverses on neighbouring sites, and a cup that
    # closes loops against the rho terms
    (
        ("eval", "--word", _WORD5, "--n", "5", "--lambda", "3", "--b", "b_plus",
         "--c", "1/2"),
        "73243d1aaf858f77cf5c3930b6ce256c987dcdc8f6af5d6f2419ef4c27c44ea6",
    ),
    (
        ("trace", "--word", _WORD5, "--n", "5", "--lambda", "3", "--b", "b_plus",
         "--c", "1/2"),
        "1c26bb129133161da4d83e7178bf95dfa76c0db48eb7e538475fc82ec2c49173",
    ),
    (
        ("eval", "--word", _WORD6, "--n", "6", "--lambda", "5/2", "--b", "2",
         "--c", "3"),
        "ff3588fce9303ccbebe3eead1435c611bf14be3a71b44bcd8ec9f9ce8b47db86",
    ),
    (
        ("trace", "--word", _WORD6, "--n", "6", "--lambda", "5/2", "--b", "2",
         "--c", "3"),
        "7668e273912171d636e5ea24e38c460d6738e52bb288f9e81bf947f13071b19e",
    ),
    # about 11.6k terms before the closure
    (
        ("trace", "--word", _WORD7, "--n", "7", "--lambda", "3", "--a", "1",
         "--b", "b_plus", "--c", "1/2"),
        "98252f366db68e161a4f0e18b3a57d8fc56ba7b2c5535305f12ea1bc797d9e21",
    ),
    # the benchmark's largest diagram verify size, where most placements are
    # distant commutes sharing one local shape
    (
        ("verify", "--algebra", "brauer", "--n", "9", "--lambda", "5/2", "--a",
         "1", "--b", "2", "--c", "3"),
        "adac2ccae6e8cb8d7b9a126ee772222f73f23cbc37050d02da36fe9cd26360b8",
    ),
    (
        ("verify", "--algebra", "brauer", "--n", "9", "--lambda", "2", "--a",
         "1", "--b", "-1", "--c", "1"),
        "01576e9643822b4656293e246ee5ca3d406e7f6ca57733d22f829b15821495b6",
    ),
    (
        ("verify", "--algebra", "vtl", "--n", "9", "--lambda", "5/2", "--a",
         "1", "--b", "2", "--c", "3"),
        "2bea37365e065d716455d334d39400f16bbd6ad42aec5331ae2ef9dc72487f64",
    ),
    (
        ("verify", "--algebra", "vtl", "--n", "9", "--lambda", "2", "--a",
         "1", "--b", "-1", "--c", "1"),
        "15618fc213f923f4fa29f5994c42d8d183b81f3a7a22ee6524d9194e77e58cc9",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN,
    ids=["eval-diagram", "eval-matrix", "eval-diagram-D=33/4", "verify-sqrt5",
         "verify-rational", "verify-matrix", "verify-utl-n6", "verify-matrix-4-2",
         "verify-matrix-4-3", "verify-wtl-n5", "eval-diagram-n5", "trace-n5",
         "eval-diagram-n6", "trace-n6", "trace-n7", "verify-brauer-n9-rational",
         "verify-brauer-n9-collapse", "verify-vtl-n9-rational",
         "verify-vtl-n9-collapse"],
)
def test_json_output_matches_pinned_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("rep", ["diagram", "matrix"])
def test_negative_probe_count_exits_two(capsys, rep):
    code, out, err = run_cli(
        capsys, "verify", "--rep", rep, "--n", "3", "--samples", "-3"
    )
    assert code == 2
    assert out == ""
    assert "probe sample count must be at least 0" in err
    code, out, _ = run_cli(capsys, "verify", "--rep", rep, "--n", "3", "--samples", "0")
    assert code == 0 and "(0 samples)" in out
