"""Exact quadratic-field scalar arithmetic."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vtl.errors import FieldMismatchError
from vtl.scalars import QuadScalar, as_scalar, rational_sqrt

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)

# non-square discriminants keep sqrt(D) genuinely irrational
NON_SQUARES = [2, 3, 5, -1, Fraction(5, 3), Fraction(-7, 2)]


def scalars_over(D):
    return st.builds(lambda x, y: QuadScalar(x, y, D), rationals, rationals)


# one field per pair: rational with rational, or Q(sqrt 5) mixed with rationals
field_values = st.one_of(scalars_over(5), rationals.map(QuadScalar))


def assert_normalised(s):
    """`s` is stored exactly as the checked constructor would store it."""
    rebuilt = QuadScalar(s.x, s.y, s.D)
    assert (s.x, s.y, s.D) == (rebuilt.x, rebuilt.y, rebuilt.D)
    assert all(type(part) is Fraction for part in (s.x, s.y, s.D))
    assert hash(s) == hash(rebuilt)


@given(field_values, field_values)
def test_arithmetic_results_match_the_checked_constructor(a, b):
    D = a.D or b.D
    assert a + b == QuadScalar(a.x + b.x, a.y + b.y, D)
    assert a - b == QuadScalar(a.x - b.x, a.y - b.y, D)
    assert a * b == QuadScalar(a.x * b.x + a.y * b.y * D, a.x * b.y + a.y * b.x, D)
    results = [a + b, a - b, a * b, -a, a.conjugate()]
    if not a.is_zero:
        results.append(a.inv())
    for result in results:
        assert_normalised(result)


big_ints = st.integers(min_value=-(10**30), max_value=10**30)
# zeros, large and negative numerators and denominators, and small fractions
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    big_ints.map(Fraction),
    st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=10**30)),
    rationals,
)


@st.composite
def operand_pairs(draw):
    """Two (x, y) pairs over one field D; y = 0 for rationals (D = 0)."""
    D = draw(st.sampled_from([Fraction(0), Fraction(5), Fraction(33, 4)]))

    def part():
        y = draw(wide_rationals) if D and draw(st.booleans()) else Fraction(0)
        return draw(wide_rationals), y

    return D, part(), part()


def assert_reduced(s):
    """Stored ints: gcd 1, positive denominator, zero as 0/1."""
    for num, den in ((s.xn, s.xd), (s.yn, s.yd), (s.Dn, s.Dd)):
        assert type(num) is int and type(den) is int
        assert den > 0 and math.gcd(num, den) == 1
        if num == 0:
            assert den == 1


def assert_is(s, x, y, D):
    """`s` is x + y sqrt(D), componentwise, stored reduced; to_obj agrees."""
    D = D if y else Fraction(0)
    assert (s.x, s.y, s.D) == (x, y, D)
    assert_reduced(s)
    assert s.to_obj() == {
        "x_num": x.numerator, "x_den": x.denominator,
        "y_num": y.numerator, "y_den": y.denominator,
        "D_num": D.numerator, "D_den": D.denominator,
    }


@given(operand_pairs())
def test_integer_arithmetic_agrees_with_fraction_reference(case):
    D, (ax, ay), (bx, by) = case
    a, b = QuadScalar(ax, ay, D), QuadScalar(bx, by, D)
    assert_is(a, ax, ay, D)
    assert_is(a + b, ax + bx, ay + by, D)
    assert_is(a - b, ax - bx, ay - by, D)
    assert_is(a * b, ax * bx + ay * by * D, ax * by + ay * bx, D)
    assert_is(-a, -ax, -ay, D)
    assert_is(a.conjugate(), ax, -ay, D)
    norm = ax * ax - ay * ay * D
    if norm:
        assert_is(a.inv(), ax / norm, -ay / norm, D)
    else:
        assert a.is_zero


def test_equal_values_built_differently_are_equal_and_hash_equal():
    half = QuadScalar(Fraction(1, 2))
    r5 = QuadScalar.root(5)
    same = [
        (QuadScalar(Fraction(2, 4)), half),
        (QuadScalar(1) / 2, half),
        (QuadScalar(Fraction(1, 4)) + Fraction(1, 4), half),
        (QuadScalar(Fraction(3, 2)) * Fraction(1, 3), half),
        (QuadScalar(1, 2, Fraction(9, 4)), QuadScalar(4)),
        (r5 * r5 - 5, QuadScalar(0)),
        (QuadScalar(0, Fraction(2, 4), 5), r5 * half),
        (QuadScalar(1, 1, Fraction(20, 4)), r5 + 1),
        (QuadScalar(0, 1, Fraction(33, 4)) * 2, QuadScalar(0, 2, Fraction(66, 8))),
    ]
    for built, plain in same:
        assert built == plain
        assert hash(built) == hash(plain)
        assert_reduced(built)


def test_cancelled_root_resets_the_discriminant():
    a = QuadScalar(1, 2, 5)
    r = QuadScalar.root(5)
    for value in (a + QuadScalar(3, -2, 5), a - QuadScalar(-3, 2, 5), r * r, r * -r, a - a):
        assert_normalised(value)
        assert value.is_rational and value.y == 0 and value.D == 0
        assert value == QuadScalar(value.x)
        assert hash(value) == hash(QuadScalar(value.x))
    assert r * r == QuadScalar(5)
    # a cancelled value mixes with another field again
    assert (r * r) + QuadScalar.root(2) == QuadScalar(5, 1, 2)


def test_mixed_discriminants_rejected_through_every_fast_path():
    r2, r3 = QuadScalar.root(2), QuadScalar(1, 1, 3)
    two = QuadScalar(2)
    ops = (operator.add, operator.sub, operator.mul)
    # a rational operand, given or produced by cancellation, joins either field
    for q in (two, r2 * r2, r3 - r3):
        assert q.is_rational
        for op in ops:
            assert op(q, r3).D in (0, 3) and op(r3, q).D in (0, 3)
            assert op(q, r2).D in (0, 2) and op(r2, q).D in (0, 2)
    # two irrational operands over different fields never combine, also when
    # each came out of an operation with a rational
    for a, b in ((r2, r3), (two * r2, r3 + two), (-r2, r3 - 1), (r2 + r2, r3 * r3 * r3)):
        for op in ops:
            with pytest.raises(FieldMismatchError):
                op(a, b)
            with pytest.raises(FieldMismatchError):
                op(b, a)


def test_square_discriminant_folds_into_rational_part():
    s = QuadScalar(1, 2, Fraction(9, 4))
    assert s.is_rational
    assert s == QuadScalar(4)
    assert s.D == 0


def test_root_of_nonsquare_stays_symbolic():
    r = QuadScalar.root(5)
    assert not r.is_rational
    assert r * r == QuadScalar(5)
    assert (r + 1) * (r - 1) == QuadScalar(4)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(49, 64)) == Fraction(7, 8)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_mixed_discriminants_rejected():
    a = QuadScalar.root(2)
    b = QuadScalar.root(3)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_rational_values_are_discriminant_agnostic():
    a = QuadScalar.root(2)
    assert a + QuadScalar(1) == QuadScalar(1, 1, 2)
    assert QuadScalar(3) * a == QuadScalar(0, 3, 2)
    # a zero irrational part collapses D so the value mixes freely
    assert (a - a) + QuadScalar.root(7) == QuadScalar.root(7)


@given(scalars_over(5), scalars_over(5), scalars_over(5))
def test_field_axioms_additive_and_distributive(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + QuadScalar(0) == a
    assert a * QuadScalar(1) == a
    assert a - a == QuadScalar(0)


@given(scalars_over(3))
def test_inverse_cancels(a):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == QuadScalar(1)
        assert QuadScalar(1) / a == a.inv()


@given(scalars_over(2))
def test_conjugate_gives_rational_norm(a):
    n = a * a.conjugate()
    assert n.is_rational
    assert n.x == a.norm()


def test_pow():
    r = QuadScalar(1, 1, 2)  # 1 + sqrt(2)
    assert r**0 == QuadScalar(1)
    assert r**2 == QuadScalar(3, 2, 2)
    assert r**5 == r * r * r * r * r
    assert r**-1 == r.inv()
    assert r**-3 == (r * r * r).inv()


def test_int_and_fraction_coercion():
    s = QuadScalar(0, 1, 5)
    assert 2 * s == s + s
    assert s - Fraction(1, 2) == QuadScalar(Fraction(-1, 2), 1, 5)
    assert 1 / (1 + s) == (1 + s).inv()
    assert as_scalar("7/3") == QuadScalar(Fraction(7, 3))
    assert as_scalar(s) is s


def test_negative_discriminant_approx_is_complex():
    i = QuadScalar.root(-1)
    assert i * i == QuadScalar(-1)
    z = i.approx()
    assert z.real == 0.0 and abs(z.imag - 1.0) < 1e-12


def test_approx_real():
    s = QuadScalar(1, 1, 2)
    assert abs(s.approx().real - 2.41421356) < 1e-6
    assert s.approx().imag == 0.0


def test_str_forms():
    assert str(QuadScalar(Fraction(-3, 2))) == "-3/2"
    assert str(QuadScalar(0, 1, 5)) == "sqrt(5)"
    assert str(QuadScalar(0, -1, 5)) == "-sqrt(5)"
    assert str(QuadScalar(Fraction(1, 2), Fraction(-1, 3), 7)) == "1/2 - 1/3*sqrt(7)"


def test_to_obj_is_six_integers():
    s = QuadScalar(Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))
    obj = s.to_obj()
    assert obj == {
        "x_num": 1,
        "x_den": 2,
        "y_num": -2,
        "y_den": 3,
        "D_num": 5,
        "D_den": 3,
    }
    assert all(isinstance(v, int) for v in obj.values())


def test_hash_consistent_with_eq():
    assert hash(QuadScalar(1, 2, Fraction(9, 4))) == hash(QuadScalar(4))
    d = {QuadScalar.root(5): "a"}
    assert d[QuadScalar(0, 1, 5)] == "a"


def test_immutability():
    s = QuadScalar(1)
    with pytest.raises(AttributeError):
        s.x = Fraction(2)
    with pytest.raises(AttributeError):
        s.xn = 2
