"""Algebra elements: linear combinations of matchings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtl.diagrams import random_matching
from vtl.elements import (
    AlgebraElement,
    closure_trace,
    e_element,
    element_add,
    element_inverse,
    element_multiply,
    element_neg,
    element_scale,
    element_sub,
    identity_element,
    v_element,
)
from vtl.errors import StrandMismatchError
from vtl.scalars import QuadScalar, as_scalar


def test_cupcap_square_scales_by_loop_value():
    e = e_element(1, 3)
    assert element_multiply(e, e, 7) == element_scale(7, e)
    assert element_multiply(e, e, Fraction(5, 2)) == element_scale(Fraction(5, 2), e)


@pytest.mark.parametrize(
    "lam", [0, Fraction(5, 2), 3, QuadScalar(1, 1, 5)], ids=["0", "5/2", "3", "1+sqrt5"]
)
def test_products_weight_each_loop_count_by_its_power(lam):
    n, lam_s = 4, as_scalar(lam)
    e1 = e_element(1, n)
    e1e3 = element_multiply(e1, e_element(3, n), lam)  # disjoint sites: no loop
    assert len(e1e3.terms()) == 1
    # two loops close in one product
    square = element_multiply(e1e3, e1e3, lam)
    assert square == element_scale(lam_s**2, e1e3)
    # loop counts 2, 1, 1 and 1 in one product, against powers taken directly
    x = element_add(e1e3, e1)
    expected = element_add(element_scale(lam_s**2 + 2 * lam_s, e1e3), element_scale(lam_s, e1))
    assert element_multiply(x, x, lam) == expected
    assert square.is_zero == (lam == 0)
    assert element_multiply(x, x, lam).is_zero == (lam == 0)


def test_complement_of_cupcap_is_involution_only_at_two():
    for n in (2, 3):
        one = identity_element(n)
        s = element_sub(one, e_element(1, n))
        assert element_multiply(s, s, 2) == one
        assert element_multiply(s, s, 3) != one


def test_zero_and_pruning():
    e = e_element(1, 2)
    z = element_sub(e, e)
    assert z.is_zero
    assert z == AlgebraElement.zero(2)
    assert not z.terms()
    assert e.coeff(e.terms()[0][0]) == QuadScalar(1)


def test_linear_structure():
    rng = random.Random(3)
    n = 3
    xs = [AlgebraElement.from_matching(random_matching(n, rng)) for _ in range(3)]
    x, y, z = xs
    assert element_add(x, y) == element_add(y, x)
    assert element_add(element_add(x, y), z) == element_add(x, element_add(y, z))
    assert element_sub(x, x).is_zero
    assert element_scale(2, x) == element_add(x, x)
    assert element_neg(x) == element_scale(-1, x)


def test_multiplication_is_associative_and_distributive():
    rng = random.Random(17)
    lam = Fraction(5, 2)
    for _ in range(30):
        n = rng.randint(2, 4)
        x, y, z = (
            element_add(
                AlgebraElement.from_matching(random_matching(n, rng)),
                element_scale(
                    Fraction(rng.randint(-3, 3)),
                    AlgebraElement.from_matching(random_matching(n, rng)),
                ),
            )
            for _ in range(3)
        )
        assert element_multiply(element_multiply(x, y, lam), z, lam) == (
            element_multiply(x, element_multiply(y, z, lam), lam)
        )
        assert element_multiply(x, element_add(y, z), lam) == element_add(
            element_multiply(x, y, lam), element_multiply(x, z, lam)
        )


@st.composite
def element_pairs(draw):
    """Two elements on one strand count, from a few matchings each, with
    small coefficients so that sums and products often cancel terms."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [random_matching(n, rng) for _ in range(4)]

    def element():
        terms = {}
        for m in draw(st.lists(st.sampled_from(pool), max_size=4)):
            terms[m] = as_scalar(draw(st.integers(-2, 2)))
        return AlgebraElement(n, terms)

    return element(), element()


@given(element_pairs(), st.sampled_from([0, 1, -1, Fraction(5, 2)]))
@settings(max_examples=200, deadline=None)
def test_trusted_results_equal_checked_construction(pair, s):
    x, y = pair
    for result in (
        element_add(x, y),
        element_sub(x, y),
        element_scale(s, x),
        element_multiply(x, y, Fraction(5, 2)),
        element_multiply(x, y, 2),
    ):
        checked = AlgebraElement(result.n, dict(result.terms()))
        assert result == checked
        assert result.terms() == checked.terms()
        assert hash(result) == hash(checked)
        assert all(not c.is_zero for _, c in result.terms())


def test_identity_is_multiplicative_unit():
    rng = random.Random(23)
    one = identity_element(4)
    for _ in range(10):
        x = AlgebraElement.from_matching(random_matching(4, rng))
        assert element_multiply(one, x, 9) == x
        assert element_multiply(x, one, 9) == x


def test_closure_trace_values():
    assert closure_trace(identity_element(3), 2) == QuadScalar(8)
    assert closure_trace(e_element(1, 3), 2) == QuadScalar(4)
    # e1 e1 = lam * e1, whose closure has two loops
    prod = element_multiply(e_element(1, 3), e_element(1, 3), 7)
    assert closure_trace(prod, 7) == QuadScalar(343)
    assert closure_trace(AlgebraElement.zero(3), 5) == QuadScalar(0)


def test_trace_is_cyclic():
    rng = random.Random(29)
    lam = Fraction(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        x = AlgebraElement.from_matching(random_matching(n, rng))
        y = AlgebraElement.from_matching(random_matching(n, rng))
        xy = element_multiply(x, y, lam)
        yx = element_multiply(y, x, lam)
        assert closure_trace(xy, lam) == closure_trace(yx, lam)


def test_crossing_inverts_to_itself():
    v = v_element(1, 3)
    assert element_inverse(v, 2) == v


def test_cupcap_is_a_zero_divisor_hence_not_invertible():
    e = e_element(1, 3)
    lam = Fraction(5)
    annihilator = element_sub(e, element_scale(lam, identity_element(3)))
    assert element_multiply(e, annihilator, lam).is_zero
    assert not annihilator.is_zero
    assert element_inverse(e, lam) is None
    assert element_inverse(AlgebraElement.zero(3), lam) is None


def test_inverse_of_shifted_cupcap():
    # (1 + e)^-1 = 1 - e/(1+lam) whenever lam != -1
    lam = Fraction(3)
    one = identity_element(3)
    x = element_add(one, e_element(1, 3))
    inv = element_inverse(x, lam)
    assert inv == element_sub(one, element_scale(Fraction(1, 4), e_element(1, 3)))
    assert element_multiply(x, inv, lam) == one
    assert element_multiply(inv, x, lam) == one


def test_inverse_over_irrational_field():
    lam = 3
    b = QuadScalar(Fraction(-3, 2), Fraction(1, 2), 5)  # root of b^2+3b+1
    one = identity_element(3)
    x = element_add(one, element_scale(b, e_element(1, 3)))
    inv = element_inverse(x, lam)
    assert inv is not None
    assert element_multiply(x, inv, lam) == one


def test_strand_mismatch_rejected():
    with pytest.raises(StrandMismatchError):
        element_add(identity_element(2), identity_element(3))
    with pytest.raises(StrandMismatchError):
        element_multiply(identity_element(2), identity_element(3), 2)
    with pytest.raises(StrandMismatchError):
        AlgebraElement(3, dict(identity_element(2).terms()))


def test_to_obj_round_readable():
    obj = e_element(1, 2).to_obj()
    assert obj == [
        {
            "matching": [["T1", "T2"], ["B1", "B2"]],
            "coeff": QuadScalar(1).to_obj(),
        }
    ]
