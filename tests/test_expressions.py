"""Formal linear combinations of generator words."""

from fractions import Fraction

from vtl.expressions import Expr, e_star, gen_e, gen_rho, gen_v
from vtl.scalars import QuadScalar
from vtl.words import E, V, GeneratorSymbol


def test_words_multiply_by_concatenation():
    x = gen_e(1) * gen_v(2)
    ((word, coeff),) = x.terms.items()
    assert word == (GeneratorSymbol(E, 1), GeneratorSymbol(V, 2))
    assert coeff == QuadScalar(1)


def test_distributivity_and_collection():
    a, b = gen_e(1), gen_v(1)
    left = (a + b) * (a - b)
    expected = a * a - a * b + b * a - b * b
    assert left == expected
    assert (a + b) - (b + a) == Expr.zero()
    assert ((a + b) - b).terms == a.terms


def test_one_is_empty_word():
    one = Expr.one()
    assert one * gen_e(2) == gen_e(2)
    assert gen_e(2) * one == gen_e(2)
    ((word, _),) = one.terms.items()
    assert word == ()


def test_scale_prunes_zero():
    x = gen_rho(1).scale(0)
    assert x.is_zero
    assert gen_rho(1).scale(Fraction(2, 3)).terms


def test_star_expands_to_one_minus_generator():
    s = e_star(2)
    assert s == Expr.one() - gen_e(2)
    # (1 - e)(1 - e) = 1 - 2e + ee as formal words, nothing is reduced
    sq = s * s
    assert sq.terms[()] == QuadScalar(1)
    assert sq.terms[(GeneratorSymbol(E, 2),)] == QuadScalar(-2)
    assert sq.terms[(GeneratorSymbol(E, 2), GeneratorSymbol(E, 2))] == QuadScalar(1)


def test_product_of_generators_is_one_word():
    syms = (GeneratorSymbol(V, 1), GeneratorSymbol(E, 2))
    assert Expr({syms: QuadScalar(1)}) == gen_v(1) * gen_e(2)


def test_terms_sorted_by_length_then_symbols():
    x = gen_v(2) * gen_v(1) + gen_e(1) + Expr.one() + gen_e(1) * gen_e(2)
    words = list(x.terms)
    assert words[0] == ()
    assert [len(w) for w in words] == sorted(len(w) for w in words)
    assert words[1] == (GeneratorSymbol(E, 1),)
