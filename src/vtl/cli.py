"""Command line interface.

Subcommands:

    verify   run a relation suite for an algebra preset in a representation
    solve    both braid-compatibility roots b for a given loop value
    eval     evaluate a generator word in a representation
    trace    closure trace of a word in the diagram algebra

Exit codes: 0 success (all expectations met, negative controls included),
1 verification or evaluation failure, 2 usage errors including the rejected
degenerate parameter regime.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .elements import closure_trace
from .errors import (
    DegenerateParamsError,
    NonInvertibleError,
    WordParseError,
)
from .relations import params_obj
from .reps import evaluate_word, make_rep
from .rho import RhoParams, solve_ab
from .scalars import QuadScalar, as_scalar
from .verify import ALGEBRA_FAMILIES, DEFAULT_SEED, VerifyRequest, run_verify
from .words import parse_word

DEFAULT_DIM = 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _b_value(text: str):
    if text in ("b_plus", "b_minus"):
        return text
    return _fraction(text)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_fraction,
        default=None,
        help="loop value (rational, e.g. 2 or 5/2); matrix reps force dim",
    )
    parser.add_argument("--a", type=_fraction, default=Fraction(1))
    parser.add_argument(
        "--b",
        type=_b_value,
        default="b_plus",
        help="rational, or b_plus / b_minus for the solved roots",
    )
    parser.add_argument("--c", type=_fraction, default=Fraction(0))


def _add_rep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rep", choices=("diagram", "matrix"), default="diagram"
    )
    parser.add_argument("--n", type=int, default=3, help="number of strands")
    parser.add_argument(
        "--dim", type=int, default=None, help="local dimension d (matrix rep)"
    )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtl",
        description="Exact diagram-algebra engine for virtual strand algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a relation suite")
    p_verify.add_argument(
        "--algebra", choices=sorted(ALGEBRA_FAMILIES), default="vtl"
    )
    _add_rep_flags(p_verify)
    _add_param_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument(
        "--samples", type=int, default=None, help="random probe sample count"
    )
    _add_format_flag(p_verify)

    p_solve = sub.add_parser("solve", help="solve b^2 + lambda b + 1 = 0")
    p_solve.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    _add_format_flag(p_solve)

    p_eval = sub.add_parser("eval", help="evaluate a generator word")
    p_eval.add_argument("--word", required=True, help='e.g. "v1 e2 v1" or "r1 r2 r1"')
    _add_rep_flags(p_eval)
    _add_param_flags(p_eval)
    _add_format_flag(p_eval)

    p_trace = sub.add_parser("trace", help="closure trace in the diagram algebra")
    p_trace.add_argument("--word", required=True)
    p_trace.add_argument("--n", type=int, default=3)
    _add_param_flags(p_trace)
    _add_format_flag(p_trace)

    return parser


def _resolve_lambda(args) -> QuadScalar:
    rep_kind = getattr(args, "rep", "diagram")
    dim = getattr(args, "dim", None)
    if rep_kind == "matrix":
        d = DEFAULT_DIM if dim is None else dim
        if args.lam is not None and Fraction(args.lam) != d:
            raise DegenerateParamsError(
                f"matrix representation forces lambda = dim = {d},"
                f" got --lambda {args.lam}"
            )
        return as_scalar(d)
    if dim is not None:
        raise ValueError(
            f"--dim sets the matrix rep's local dimension; the {rep_kind} rep"
            f" takes its loop value from --lambda, got --dim {dim}"
        )
    if args.lam is None:
        return as_scalar(2)
    return as_scalar(args.lam)


def _resolve_params(args, lam: QuadScalar) -> RhoParams:
    b = args.b
    if b in ("b_plus", "b_minus"):
        roots = solve_ab(lam)
        b = roots[0] if b == "b_plus" else roots[1]
    return RhoParams.make(args.a, b, args.c, lam)


def _emit(obj: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _verify_text(report: dict) -> list[str]:
    lines = [
        "algebra={algebra} rep={rep} n={n} dim={dim} seed={seed}".format(**report)
    ]
    for chk in report["checks"]:
        if chk["status"] == "skipped":
            lines.append(f"[skip] {chk['family']} (needs more strands)")
            continue
        tag = {
            "pass": "pass",
            "fail": "FAIL",
            "negative_control": "expected-nonzero",
        }[chk["status"]]
        lines.append(
            f"[{tag}] {chk['family']} site={chk['site']} {chk['variant']}"
            f" residual={chk['residual_norm']}"
        )
    for probe in report["probes"]:
        if "samples" in probe:
            detail = f"({probe['samples']} samples)"
        else:
            detail = f"(rank {probe['rank']})"
        lines.append(f"probe {probe['name']}: {probe['status']} {detail}")
    s = report["summary"]
    lines.append(
        "summary: pass={pass} fail={fail} negative_controls={negative_controls}"
        " skipped={skipped}".format(**s)
    )
    return lines


def _cmd_verify(args) -> int:
    lam = _resolve_lambda(args)
    params = _resolve_params(args, lam)
    request = VerifyRequest(
        algebra=args.algebra,
        rep_kind=args.rep,
        n=args.n,
        params=params,
        seed=args.seed,
        probe_samples=args.samples,
    )
    report = run_verify(request)
    _emit(report, args.fmt, _verify_text(report) if args.fmt == "text" else None)
    return 0 if report["ok"] else 1


def _cmd_solve(args) -> int:
    lam = as_scalar(args.lam)
    b_plus, b_minus = solve_ab(lam)
    obj = {
        "command": "solve",
        "lambda": lam.to_obj(),
        "b_plus": b_plus.to_obj(),
        "b_minus": b_minus.to_obj(),
        "product": (b_plus * b_minus).to_obj(),
    }
    lines = [
        f"lambda = {lam}",
        f"b_plus = {b_plus}",
        f"b_minus = {b_minus}",
        f"product = {b_plus * b_minus} (must be 1)",
    ]
    _emit(obj, args.fmt, lines)
    return 0


def _cmd_eval(args) -> int:
    lam = _resolve_lambda(args)
    params = _resolve_params(args, lam)
    word = parse_word(args.word, args.n)
    rep = make_rep(args.rep, args.n, lam)
    value = evaluate_word(word, rep, params)
    obj = lines = None
    if args.fmt == "json":
        obj = {
            "command": "eval",
            "word": args.word,
            "n": args.n,
            "rep": rep.kind,
            "params": params_obj(params),
            ("terms" if rep.kind == "diagram" else "matrix"): value.to_obj(),
        }
    elif rep.kind == "diagram":
        lines = [f"{args.word}  (n={args.n}, lambda={lam})"]
        if value.is_zero:
            lines.append("= 0")
        for m, c in value.terms():
            lines.append(f"  {c}  *  {m.to_obj()}")
    else:
        lines = [
            f"{args.word}  (n={args.n}, d={rep.d}: {value.rows}x{value.cols} matrix)",
            f"trace = {value.trace()}",
            f"nonzero entries = {value.nnz}",
        ]
    _emit(obj, args.fmt, lines)
    return 0


def _cmd_trace(args) -> int:
    lam = _resolve_lambda(args)
    params = _resolve_params(args, lam)
    word = parse_word(args.word, args.n)
    rep = make_rep("diagram", args.n, lam)
    value = evaluate_word(word, rep, params)
    tr = closure_trace(value, lam)
    obj = {
        "command": "trace",
        "word": args.word,
        "n": args.n,
        "lambda": lam.to_obj(),
        "trace": tr.to_obj(),
    }
    _emit(obj, args.fmt, [f"closure trace of {args.word} at lambda={lam}: {tr}"])
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "trace": _cmd_trace,
}


# Flags whose value may be a negative fraction.  argparse takes only -<digits>
# and -<digits>.<digits> for negative numbers, so it would read the -4/5 of
# "--b -4/5" as an option; such a value is attached as "--b=-4/5".
_NUMBER_FLAGS = ("--a", "--b", "--c", "--lambda")


def _attach_negative_values(argv) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _NUMBER_FLAGS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        return _COMMANDS[args.command](args)
    except (DegenerateParamsError, WordParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
