"""Shared representation surface for diagram and tensor models."""

import random
from fractions import Fraction

import pytest

from vtl.cli import main
from vtl.diagrams import Matching, random_matching
from vtl.elements import (
    AlgebraElement,
    closure_trace,
    e_element,
    element_multiply,
    identity_element,
    v_element,
)
from vtl.errors import NonInvertibleError
from vtl.expressions import Expr, e_star, gen_e, gen_rho, gen_v
from vtl.reps import (
    DiagramRep,
    MatrixRep,
    evaluate_expr,
    evaluate_word,
    make_rep,
    rho_image,
    symbol_image,
)
from vtl.rho import RhoParams, solve_ab
from vtl.scalars import as_scalar
from vtl.tensorrep import pstar_complement
from vtl.words import RHO_INV, GeneratorSymbol, parse_word


def test_generators_match_underlying_constructors():
    rep = DiagramRep(3, 2)
    assert rep.one() == identity_element(3)
    assert rep.mul(rep.e(1), rep.e(1)) == rep.e(1).scale(2)
    m = MatrixRep(2, 3)
    assert m.lam == 3
    assert m.mul(m.v(1), m.v(1)) == m.one()


def test_rho_image_agrees_with_element_builder():
    p = RhoParams.make(2, Fraction(-1, 3), 5, Fraction(5, 2))
    rep = DiagramRep(4, Fraction(5, 2))
    expected = (
        identity_element(4).scale(p.a)
        + e_element(2, 4).scale(p.b)
        + v_element(2, 4).scale(p.c)
    )
    assert rho_image(rep, 2, p) == expected


def test_rho_is_invertible_exactly_on_the_braid_curve():
    lam = Fraction(5, 2)
    rep = DiagramRep(3, lam)
    p = RhoParams.make(1, solve_ab(lam)[0], 0, lam)
    word = parse_word("r1 r1^-1", 3)
    assert evaluate_word(word, rep, p) == rep.one()


def test_rho_inverse_in_matrix_model():
    rep = MatrixRep(3, 2)
    p = RhoParams.make(1, -1, 0, 2)
    word = parse_word("r2^-1 r2", 3)
    assert evaluate_word(word, rep, p) == rep.one()
    # with c = 1 the relations still hold but rho itself drops rank at d = 2:
    # it annihilates both the antisymmetric vector and the cup-cap image
    q = RhoParams.make(1, -1, 1, 2)
    with pytest.raises(NonInvertibleError):
        evaluate_word(parse_word("r2^-1", 3), rep, q)


def test_inverse_failure_raises():
    rep = DiagramRep(3, 2)
    p = RhoParams.make(0, 1, 0, 2)  # rho = e1, a zero divisor
    with pytest.raises(NonInvertibleError):
        evaluate_word(parse_word("r1^-1", 3), rep, p)


def test_rho_symbols_need_params():
    rep = DiagramRep(3, 2)
    with pytest.raises(ValueError):
        symbol_image(rep, GeneratorSymbol("r", 1))


def test_word_rep_strand_mismatch():
    for rep in (DiagramRep(3, 2), MatrixRep(3, 2)):
        with pytest.raises(ValueError, match="word on n=4 evaluated in rep on n=3"):
            evaluate_word(parse_word("e1", 4), rep)


def test_evaluate_expr_is_linear_and_multiplicative():
    lam = Fraction(2)
    rep = DiagramRep(3, lam)
    x = gen_e(1) * gen_v(2) - gen_v(1).scale(3)
    y = gen_e(2) + gen_rho(1)
    p = RhoParams.make(1, -1, 0, lam)
    vx = evaluate_expr(x, rep, p)
    vy = evaluate_expr(y, rep, p)
    assert evaluate_expr(x * y, rep, p) == element_multiply(vx, vy, lam)


def test_complement_expression_evaluates_to_flat_involution():
    rep = MatrixRep(2, 2)
    val = evaluate_expr(e_star(1), rep)
    assert val == pstar_complement(2)
    assert rep.mul(val, val) == rep.one()


def test_witness_points_at_a_nonzero_piece():
    rep = DiagramRep(3, 2)
    norm, w = rep.describe(rep.e(1) - rep.e(2).scale(3))
    assert norm == "2 terms, max |coeff| ~= 3"
    assert set(w) == {"matching", "coeff"}
    assert rep.describe(rep.zero()) == ("0", None)
    m = MatrixRep(2, 2)
    norm, mw = m.describe(m.e(1) - m.one())
    # e_1 - 1 vanishes at (0, 0) and (3, 3); its nonzeros are (0, 3), (1, 1),
    # (2, 2) and (3, 0), and the witness is the first in row-major order
    assert norm == "4 entries, max |entry| ~= 1"
    assert set(mw) == {"row", "col", "entry"}
    assert (mw["row"], mw["col"]) == (0, 3)
    assert m.describe(m.zero()) == ("0", None)


def _sample_elements(rep):
    """Zero, a generator, and sums with several coordinates of mixed sign."""
    yield rep.zero()
    yield rep.e(1)
    yield rep.v(2) - rep.e(1).scale(3)
    yield rho_image(rep, 1, RhoParams.make(1, -1, 2, rep.lam)) - rep.v(1)
    yield rep.mul(rep.e(2), rep.v(1)) + rep.one().scale(Fraction(1, 2))


@pytest.mark.parametrize("rep", [DiagramRep(3, Fraction(5, 2)), MatrixRep(3, 2)])
def test_coords_are_the_sorted_nonzero_pairs(rep):
    for x in _sample_elements(rep):
        coords = rep.coords(x)
        keys = [k for k, _ in coords]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(not c.is_zero for _, c in coords)
        if isinstance(rep, DiagramRep):
            assert coords == x.terms()
        else:
            assert coords == [((r, c), e) for r, c, e in x.nonzeros()]
        assert (coords == []) == x.is_zero
        norm, witness = rep.describe(x)
        if not coords:
            assert (norm, witness) == ("0", None)
            continue
        key, value = coords[0]
        if isinstance(rep, DiagramRep):
            assert witness == {"matching": key.to_obj(), "coeff": value.to_obj()}
        else:
            assert witness == {"row": key[0], "col": key[1], "entry": value.to_obj()}


def test_matrix_rep_takes_its_dimension_from_lambda():
    rep = make_rep("matrix", 3, 3)
    assert (rep.n, rep.d, rep.lam) == (3, 3, as_scalar(3))
    assert make_rep("matrix", 2, as_scalar(4)).d == 4
    assert DiagramRep(3, 3).d is None
    for lam in (Fraction(5, 2), solve_ab(3)[0]):
        with pytest.raises(ValueError, match="an integer"):
            make_rep("matrix", 3, lam)


@pytest.mark.parametrize("kind", ["matirx", "Diagram", ""])
def test_make_rep_refuses_an_unknown_kind(kind):
    with pytest.raises(ValueError, match=r"unknown rep kind .*diagram, matrix"):
        make_rep(kind, 3, 2)


@pytest.mark.parametrize("rep", [DiagramRep(3, Fraction(5, 2)), MatrixRep(3, 2)])
def test_empty_word_evaluates_to_the_identity(rep):
    assert evaluate_word(parse_word("", 3), rep) == rep.one()
    assert evaluate_word((), rep) == rep.one()


@pytest.mark.parametrize(
    "rep, lam", [(DiagramRep(3, Fraction(5, 2)), Fraction(5, 2)), (MatrixRep(3, 3), 3)]
)
def test_each_distinct_inverse_is_computed_once_per_call(rep, lam, monkeypatch):
    p = RhoParams.make(1, solve_ab(lam)[0], Fraction(1, 2), lam)

    def rebuilt(symbols):
        """The product with every symbol's image rebuilt where it occurs."""
        out = rep.one()
        for sym in symbols:
            out = rep.mul(out, symbol_image(rep, sym, p))
        return out

    word = parse_word("r1^-1 r2 r1^-1 r2^-1", 3)
    expected = rebuilt(word.symbols)
    # each r<k>^-1 image is built from the closed-form inverse parameters
    calls = []
    inverse = RhoParams.inverse
    monkeypatch.setattr(
        RhoParams, "inverse", lambda self, lam: calls.append(lam) or inverse(self, lam)
    )
    assert evaluate_word(word, rep, p) == expected
    assert len(calls) == 2  # r1^-1 and r2^-1
    # the words of one expression share a table
    inv1 = Expr.gen(GeneratorSymbol(RHO_INV, 1))
    expr = inv1 * gen_e(2) * inv1 + (gen_rho(2) * inv1).scale(3)
    expected = rep.zero()
    for w, c in expr.terms.items():
        expected = expected + rebuilt(w).scale(c)
    calls.clear()
    assert evaluate_expr(expr, rep, p) == expected
    assert len(calls) == 1


B_PLUS = solve_ab(3)[0]  # a root of b^2 + 3b + 1, in Q(sqrt 5)
INVERTIBLE_POINTS = [
    (1, B_PLUS, Fraction(1, 2)),
    (2, Fraction(-1, 3), Fraction(5, 7)),
    (Fraction(1, 2), 1, B_PLUS),
    (1, -1, 3),
]
CLOSED_FORM_REPS = [
    DiagramRep(n, lam) for n in (3, 4) for lam in (0, Fraction(5, 2), 3)
] + [MatrixRep(3, 2), MatrixRep(3, 3)]


@pytest.mark.parametrize(
    "rep", CLOSED_FORM_REPS, ids=lambda r: f"{r.kind}-n{r.n}-lam{r.lam}"
)
def test_closed_form_inverse_matches_rep_invert(rep):
    """x + y e_i + z v_i from `RhoParams.inverse` against the rep's own
    `invert` (minimal polynomial or Gauss-Jordan), at every site."""
    for a, b, c in INVERTIBLE_POINTS:
        p = RhoParams.make(a, b, c, rep.lam)
        inv = p.inverse(rep.lam)
        assert inv is not None and inv.lam == rep.lam
        for i in range(1, rep.n):
            rho = rho_image(rep, i, p)
            got = rho_image(rep, i, inv)
            assert got == rep.invert(rho)
            assert rep.mul(rho, got) == rep.one()
            assert rep.mul(got, rho) == rep.one()
            assert symbol_image(rep, GeneratorSymbol(RHO_INV, i), p) == got


def test_matrix_inverse_uses_the_reps_own_loop_value():
    """The matrix rep's loop value is d, whatever lambda the params carry."""
    rep = MatrixRep(3, 2)
    p = RhoParams.make(2, Fraction(-1, 3), Fraction(5, 7), 7)
    got = symbol_image(rep, GeneratorSymbol(RHO_INV, 2), p)
    assert got == rep.invert(rho_image(rep, 2, p))
    assert got != rho_image(rep, 2, p.inverse(7))


def singular_points(lam):
    """(a, b, c) on each factor of (a + c)(a - c)(a + c + b lam), lam != 0."""
    lam = as_scalar(lam)
    return {
        "a=c": (2, 1, 2),
        "a=-c": (2, 1, -2),
        "a+c+b*lam=0": (1, -as_scalar(2) / lam, 1),
    }


@pytest.mark.parametrize("locus", ["a=c", "a=-c", "a+c+b*lam=0"])
@pytest.mark.parametrize(
    "rep", [DiagramRep(3, Fraction(5, 2)), MatrixRep(3, 2)], ids=["diagram", "matrix"]
)
def test_closed_form_inverse_is_none_exactly_on_the_singular_locus(rep, locus):
    a, b, c = singular_points(rep.lam)[locus]
    p = RhoParams.make(a, b, c, rep.lam)
    assert p.inverse(rep.lam) is None
    for i in range(1, rep.n):
        assert rep.invert(rho_image(rep, i, p)) is None
    with pytest.raises(NonInvertibleError, match="^rho_2 is not invertible here$"):
        evaluate_word(parse_word("r1 r2^-1", 3), rep, p)


@pytest.mark.parametrize(
    "argv",
    [
        ["--rep", "matrix", "--dim", "2", "--a", "1", "--b", "1", "--c", "1"],
        ["--rep", "matrix", "--dim", "3", "--a", "1", "--b", "-1", "--c", "-1"],
        ["--lambda", "5/2", "--a", "1", "--b=-4/5", "--c", "1"],
    ],
    ids=["matrix-a=c", "matrix-a=-c", "diagram-a+c+b*lam=0"],
)
def test_eval_exits_one_on_the_singular_locus(capsys, argv):
    code = main(["eval", "--n", "3", "--word", "r1 r2^-1", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: rho_2 is not invertible here\n"


def placed(x: AlgebraElement, n: int) -> AlgebraElement:
    """x on n - 1 strands as an element on n, strand n running straight through."""
    k = n - 1

    def shift(e):
        return e if e < k else e + 1

    return AlgebraElement(n, {
        Matching(n, [(shift(p), shift(q)) for p, q in m.pairs] + [(k, 2 * n - 1)]): c
        for m, c in x.terms()
    })


@pytest.mark.parametrize(
    "a, b, c, lam",
    [(2, Fraction(-1, 3), Fraction(5, 7), 3), (1, B_PLUS, Fraction(1, 2), 3)],
    ids=["rational", "sqrt5"],
)
def test_markov_trace_of_the_inverse(a, b, c, lam):
    """closure_trace(x rho_{n-1}^-1) = (x' lam + y' + z') closure_trace(x) for x
    on n - 1 strands, (x', y', z') the closed-form inverse parameters."""
    rng = random.Random(8)
    p = RhoParams.make(a, b, c, lam)
    inv = p.inverse(lam)
    factor = inv.a * inv.lam + inv.b + inv.c
    for n in (3, 4):
        rep = DiagramRep(n, lam)
        image = symbol_image(rep, GeneratorSymbol(RHO_INV, n - 1), p)
        for _ in range(10):
            x = AlgebraElement(n - 1, {
                random_matching(n - 1, rng): as_scalar(Fraction(rng.randint(-3, 3), 2))
                for _ in range(3)
            })
            got = closure_trace(element_multiply(placed(x, n), image, lam), lam)
            assert got == factor * closure_trace(x, lam)
