"""End-to-end acceptance checks for the release checklist.

Each test covers one checklist item and records a single PASS/FAIL line;
the lines are printed together in the "acceptance summary" section after
the run (see conftest.py).  All comparisons are exact: residuals must be
identically zero, matrices must agree entry by entry, reports must agree
byte for byte.  No tolerances.

The forbidden and complement moves at the loop-value-2 collapse point
hold in the d = 2 matrix model but not in the diagram algebra.
test_loop_value_two_quotient_identities checks the matrix side;
test_forbidden_and_complement_moves_in_diagram_algebra pins the
diagram-side obstruction exactly: every residual equals the fixed
eight-term element kappa, which the d = 2 model annihilates.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

from vtl import (
    AlgebraElement,
    DiagramRep,
    MatrixRep,
    RhoParams,
    VerifyRequest,
    check_relation,
    closure_trace,
    element_multiply,
    evaluate_expr,
    evaluate_word,
    parse_word,
    perm_matrix,
    ptranspose_matrix,
    random_matching,
    relation_instances,
    rep_element,
    run_verify,
    solve_ab,
)
from vtl.cli import main as cli_main
from vtl.expand import braid_matches_registry
from vtl.linalg import DenseMatrix
from vtl.relations import f_word_expr


def record(criterion: str, ok: bool, detail: str) -> bool:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def _random_lambda(rng: random.Random) -> Fraction:
    """A random nonzero rational, small numerator and denominator."""
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 9))


def _random_element(n: int, rng: random.Random) -> AlgebraElement:
    total = AlgebraElement.zero(n)
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        term = AlgebraElement.from_matching(random_matching(n, rng), coeff)
        total = total + term
    return total


def test_defining_relations_hold_in_diagram_algebra():
    """Generator relations on 3..5 strands at five random loop values."""
    rng = random.Random(101)
    bad = []
    for _ in range(5):
        lam = _random_lambda(rng)
        params = RhoParams.make(1, 1, 0, lam)
        for n in (3, 4, 5):
            rep = DiagramRep(n, lam)
            for family in ("TLR", "VCR", "VEV", "brauer"):
                for inst in relation_instances(family, n, params):
                    report = check_relation(inst, rep, params)
                    if not report.residual_zero:
                        bad.append((family, n, str(lam), inst.variant))
    ok = record(
        "criterion 1",
        not bad,
        "defining relations hold in the diagram algebra"
        " (n=3,4,5 at 5 random loop values)",
    )
    assert ok, f"nonzero residuals: {bad[:5]}"


def test_braid_relation_for_quadratic_root_parameters():
    """rho_i = 1 + b E_i braids when b^2 + lambda b + 1 = 0, both roots."""
    rng = random.Random(202)
    bad = []
    seen = 0
    while seen < 5:
        lam = _random_lambda(rng)
        if lam * lam == 4:
            continue
        seen += 1
        for b in solve_ab(lam):
            params = RhoParams.make(1, b, 0, lam)
            for n in (3, 4):
                rep = DiagramRep(n, lam)
                for inst in relation_instances("BGR", n, params):
                    report = check_relation(inst, rep, params)
                    if not report.residual_zero:
                        bad.append((str(lam), str(b), n, inst.variant))
    ok = record(
        "criterion 2",
        not bad,
        "braid relation holds for rho = 1 + b*E at both quadratic roots"
        " (5 random loop values, n=3,4)",
    )
    assert ok, f"nonzero braid residuals: {bad[:5]}"


def test_single_site_matrix_identities():
    """Swap/pair-projector identities on one site, slide moves on three."""
    bad = []
    for d in (2, 3, 4):
        P = perm_matrix(d)
        S = ptranspose_matrix(d)
        one = DenseMatrix.identity(d * d)
        for label, lhs, rhs in (
            ("P*S", P * S, S),
            ("S*P", S * P, S),
            ("S*S", S * S, S.scale(d)),
            ("P*P", P * P, one),
        ):
            if lhs != rhs:
                bad.append((d, label))
    for d in (2, 3):
        rep = MatrixRep(3, d)
        params = RhoParams.make(1, 1, 0, d)
        for inst in relation_instances("brauer", 3, params):
            if not check_relation(inst, rep, params).residual_zero:
                bad.append((d, inst.variant))
    ok = record(
        "criterion 3",
        not bad,
        "matrix model: P*S = S*P = S, S^2 = d*S, P^2 = 1 (d=2,3,4)"
        " and slide moves on 3 sites (d=2,3)",
    )
    assert ok, f"matrix identity failures: {bad}"


def test_diagram_to_matrix_word_homomorphism():
    """200 random words: evaluate in diagrams, map to matrices, compare."""
    rng = random.Random(404)
    bad = []
    for k in range(200):
        n = rng.randint(2, 4)
        tokens = [
            f"{rng.choice('ev')}{rng.randint(1, n - 1)}"
            for _ in range(rng.randint(1, 8))
        ]
        text = " ".join(tokens)
        word = parse_word(text, n)
        elem = evaluate_word(word, DiagramRep(n, 2))
        direct = evaluate_word(word, MatrixRep(n, 2))
        mapped = rep_element(elem, MatrixRep(n, 2))
        if mapped != direct:
            bad.append((k, n, text))
    ok = record(
        "criterion 4",
        not bad,
        "diagram evaluation matches matrix evaluation on 200 random"
        " words (length <= 8, n <= 4, d = 2)",
    )
    assert ok, f"homomorphism mismatches: {bad[:5]}"


def test_loop_value_two_quotient_identities():
    """At lambda = 2 with a = 1, b = -1 the linear families collapse.

    The two rewritten linear forms hold in both representations for any
    c, and in the d = 2 matrix model the whole tower closes up: braid,
    grouped expansion, both mixed-move families and the complement
    moves all produce zero residuals at this parameter point.
    """
    bad = []
    lam = Fraction(2)
    for c in (Fraction(1), Fraction(1, 2), Fraction(-3)):
        params = RhoParams.make(1, -1, c, lam)
        reps = (DiagramRep(3, lam), DiagramRep(4, lam), MatrixRep(3, 2))
        for rep in reps:
            for family in ("wTL1", "wTL2"):
                for inst in relation_instances(family, rep.n, params):
                    if not check_relation(inst, rep, params).residual_zero:
                        bad.append((family, rep.kind, rep.n, str(c)))
    params = RhoParams.make(1, -1, 1, lam)
    rep = MatrixRep(3, 2)
    for family in ("vTL", "BGR", "F1", "F2", "FF1", "FF2", "fstar"):
        for inst in relation_instances(family, 3, params):
            if not check_relation(inst, rep, params).residual_zero:
                bad.append((family, "matrix d=2"))
    ok = record(
        "criterion 5a",
        not bad,
        "loop-value-2 collapse: linear families hold in both reps for"
        " any c; every family closes in the d=2 matrix model",
    )
    assert ok, f"unexpected residuals at the collapse point: {bad}"


# kappa_i = v1 - v2 - e1 + e2 + v2*e1 - e2*v1 + e1*v2 - v1*e2 on sites i, i+1.
KAPPA_SIGNS = (1, -1, -1, 1, 1, -1, 1, -1)


def _kappa(rep: DiagramRep, i: int) -> AlgebraElement:
    """kappa at sites i, i+1, built from the generators, not the registry."""
    e1, e2, v1, v2 = rep.e(i), rep.e(i + 1), rep.v(i), rep.v(i + 1)
    products = (
        v1, v2, e1, e2,
        rep.mul(v2, e1), rep.mul(e2, v1), rep.mul(e1, v2), rep.mul(v1, e2),
    )
    total = rep.zero()
    for sign, product in zip(KAPPA_SIGNS, products):
        total = total + product.scale(sign)
    return total


def test_forbidden_and_complement_moves_in_diagram_algebra():
    """Forbidden and complement moves leave exactly kappa in diagrams.

    At loop value 2 with a = 1, b = -1, c = 1, the moves
    v1*r2*r1 = r2*r1*v2 and r1*r2*v1 = v2*r1*r2 (F1, F2), and the same
    with s_i = 1 - E_i in place of rho_i (fstar), are not identities of
    the diagram algebra.  Reducing v1*s2*s1 - s2*s1*v2 by crossing
    absorption and the Brauer slides gives
    kappa = v1 - v2 - e1 + e2 + v2*e1 - e2*v1 + e1*v2 - v1*e2, and for
    rho_i = s_i + v_i the extra terms cancel, so all four moves leave
    that same residual.  kappa is eight distinct diagrams with
    coefficients +-1, hence nonzero; its d = 2 tensor image is zero
    (which is why the moves pass in
    test_loop_value_two_quotient_identities) and its d = 3 image is not.
    """
    lam = Fraction(2)
    params = RhoParams.make(1, -1, 1, lam)
    bad = []
    for n in (3, 4):
        rep = DiagramRep(n, lam)
        kappas = {i: _kappa(rep, i) for i in range(1, n - 1)}
        for i, kappa in kappas.items():
            coeffs = [c for _, c in kappa.terms()]
            if len(coeffs) != 8 or any(c not in (1, -1) for c in coeffs):
                bad.append((n, i, "kappa is not eight +-1 terms", len(coeffs)))
            if not rep_element(kappa, MatrixRep(n, 2)).is_zero:
                bad.append((n, i, "kappa survives at d = 2"))
            if rep_element(kappa, MatrixRep(n, 3)).is_zero:
                bad.append((n, i, "kappa vanishes at d = 3"))
        checked = 0
        for family in ("F1", "F2", "fstar"):
            for inst in relation_instances(family, n, params):
                residual = evaluate_expr(inst.lhs, rep, params) - evaluate_expr(
                    inst.rhs, rep, params
                )
                if residual != kappas[inst.site]:
                    bad.append((n, inst.site, family, inst.variant))
                checked += 1
        # F1 and F2 have one instance per site, fstar two.
        if checked != 4 * len(kappas):
            bad.append((n, "instances checked", checked))
    ok = record(
        "criterion 5b",
        not bad,
        "forbidden/complement moves at the collapse point: residual ="
        " kappa != 0 in diagrams, 0 at d = 2 (n=3,4, every site)",
    )
    assert ok, (
        "every F1/F2/fstar residual should equal the eight-term element"
        " kappa_i = v1 - v2 - e1 + e2 + v2*e1 - e2*v1 + e1*v2 - v1*e2,"
        " which the d = 2 model annihilates and the d = 3 model does"
        f" not; mismatches: {bad}"
    )


def test_negative_controls_detect_nonidentities():
    """Checks that must come out nonzero actually do."""
    bad = []
    lam = Fraction(3)
    b_plus, _ = solve_ab(lam)
    params = RhoParams.make(1, b_plus, 1, lam)
    rep = DiagramRep(3, lam)
    for inst in relation_instances("wTL1", 3, params):
        if check_relation(inst, rep, params).residual_zero:
            bad.append(("wTL1 unexpectedly zero", inst.variant))
    for lam2 in (Fraction(2), Fraction(3)):
        rep2 = DiagramRep(3, lam2)
        for j in range(3):
            if evaluate_expr(f_word_expr(j, 1), rep2).is_zero:
                bad.append((f"[F]{j} unexpectedly zero", str(lam2)))
    ok = record(
        "criterion 6",
        not bad,
        "negative controls: wTL1 is nonzero off the collapse locus and"
        " each bracket word [F]j is a nonzero diagram element",
    )
    assert ok, f"negative controls came out zero: {bad}"


def test_grouped_braid_expansion_matches_brute_force():
    """The grouped residual equals the raw rho-braid expansion."""
    rng = random.Random(707)
    bad = []
    for _ in range(3):
        a, b, c, lam = (_random_lambda(rng) for _ in range(4))
        params = RhoParams.make(a, b, c, lam)
        if not braid_matches_registry(params):
            bad.append(tuple(map(str, (a, b, c, lam))))
    ok = record(
        "criterion 7",
        not bad,
        "grouped braid residual equals brute-force normal-form"
        " expansion at 3 random parameter samples",
    )
    assert ok, f"grouped/brute-force mismatch at: {bad}"


def test_closure_trace_is_cyclic():
    """tr(xy) = tr(yx) on 100 random pairs of diagram elements."""
    rng = random.Random(808)
    bad = []
    for k in range(100):
        n = rng.randint(2, 4)
        lam = Fraction(rng.randint(1, 5))
        x = _random_element(n, rng)
        y = _random_element(n, rng)
        xy = element_multiply(x, y, lam)
        yx = element_multiply(y, x, lam)
        if closure_trace(xy, lam) != closure_trace(yx, lam):
            bad.append((k, n, str(lam)))
    ok = record(
        "criterion 8",
        not bad,
        "closure trace is cyclic on 100 random pairs (n <= 4)",
    )
    assert ok, f"trace cyclicity failures: {bad[:5]}"


def test_verify_reports_are_deterministic():
    """Same request twice gives byte-identical reports, API and CLI."""
    lam = Fraction(5, 2)
    b_plus, _ = solve_ab(lam)
    params = RhoParams.make(1, b_plus, 1, lam)
    request = VerifyRequest(algebra="vtl", rep_kind="diagram", n=3, params=params)
    first = json.dumps(run_verify(request), sort_keys=True)
    second = json.dumps(run_verify(request), sort_keys=True)
    argv = [
        "verify", "--algebra", "utl", "--rep", "matrix", "--n", "3",
        "--dim", "2", "--a", "-1", "--b", "-1", "--format", "json",
    ]
    outputs, codes = [], []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli_main(list(argv)))
        outputs.append(buf.getvalue())
    bad = []
    if first != second:
        bad.append("library report differs between identical runs")
    if outputs[0] != outputs[1]:
        bad.append("CLI output differs between identical runs")
    if codes != [0, 0]:
        bad.append(f"CLI exit codes {codes}, expected [0, 0]")
    ok = record(
        "criterion 9",
        not bad,
        "verification reports are byte-identical across repeated runs"
        " (library and CLI)",
    )
    assert ok, f"determinism failures: {bad}"
