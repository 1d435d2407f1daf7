"""Shared representation surface for diagram and tensor models."""

from fractions import Fraction

import pytest

from vtl.elements import (
    e_element,
    element_add,
    element_multiply,
    element_scale,
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
    rho_image,
    symbol_image,
)
from vtl.rho import RhoParams, solve_ab
from vtl.tensorrep import pstar_complement
from vtl.words import RHO_INV, GeneratorSymbol, parse_word


def test_generators_match_underlying_constructors():
    rep = DiagramRep(3, 2)
    assert rep.one() == identity_element(3)
    assert rep.mul(rep.e(1), rep.e(1)) == rep.scale(2, rep.e(1))
    m = MatrixRep(2, 3)
    assert m.lam == 3
    assert m.mul(m.v(1), m.v(1)) == m.one()


def test_rho_image_agrees_with_element_builder():
    p = RhoParams.make(2, Fraction(-1, 3), 5, Fraction(5, 2))
    rep = DiagramRep(4, Fraction(5, 2))
    expected = element_add(
        element_add(
            element_scale(p.a, identity_element(4)),
            element_scale(p.b, e_element(2, 4)),
        ),
        element_scale(p.c, v_element(2, 4)),
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
    rep = DiagramRep(3, 2)
    with pytest.raises(ValueError):
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
    diff = rep.sub(rep.e(1), rep.e(2))
    w = rep.witness(diff)
    assert set(w) == {"matching", "coeff"}
    m = MatrixRep(2, 2)
    mw = m.witness(m.sub(m.e(1), m.one()))
    assert set(mw) == {"row", "col", "entry"}
    # the first nonzero in row-major order: e_1 - 1 vanishes at (0, 0)
    assert (mw["row"], mw["col"]) == (0, 3)
    assert m.witness(m.zero()) is None


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
    calls = []
    invert = rep.invert
    monkeypatch.setattr(rep, "invert", lambda x: calls.append(x) or invert(x))
    assert evaluate_word(word, rep, p) == expected
    assert len(calls) == 2  # r1^-1 and r2^-1
    # the words of one expression share a table
    inv1 = Expr.gen(GeneratorSymbol(RHO_INV, 1))
    expr = inv1 * gen_e(2) * inv1 + (gen_rho(2) * inv1).scale(3)
    expected = rep.zero()
    for w, c in expr.terms.items():
        expected = rep.add(expected, rep.scale(c, rebuilt(w)))
    calls.clear()
    assert evaluate_expr(expr, rep, p) == expected
    assert len(calls) == 1
