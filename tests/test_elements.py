"""Algebra elements: linear combinations of matchings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtl import elements
from vtl.diagrams import (
    CUP,
    Matching,
    apply_generator,
    compose,
    e_diagram,
    identity_diagram,
    random_matching,
    v_diagram,
)
from vtl.elements import (
    AlgebraElement,
    closure_trace,
    e_element,
    element_inverse,
    element_multiply,
    identity_element,
    v_element,
)
from vtl.errors import StrandMismatchError
from vtl.scalars import ZERO, QuadScalar, as_scalar


def test_cupcap_square_scales_by_loop_value():
    e = e_element(1, 3)
    assert element_multiply(e, e, 7) == e.scale(7)
    assert element_multiply(e, e, Fraction(5, 2)) == e.scale(Fraction(5, 2))


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
    assert square == e1e3.scale(lam_s**2)
    # loop counts 2, 1, 1 and 1 in one product, against powers taken directly
    x = e1e3 + e1
    expected = e1e3.scale(lam_s**2 + 2 * lam_s) + e1.scale(lam_s)
    assert element_multiply(x, x, lam) == expected
    assert square.is_zero == (lam == 0)
    assert element_multiply(x, x, lam).is_zero == (lam == 0)


def test_complement_of_cupcap_is_involution_only_at_two():
    for n in (2, 3):
        one = identity_element(n)
        s = one - e_element(1, n)
        assert element_multiply(s, s, 2) == one
        assert element_multiply(s, s, 3) != one


def test_zero_and_pruning():
    e = e_element(1, 2)
    z = e - e
    assert z.is_zero
    assert z == AlgebraElement.zero(2)
    assert not z.terms()
    assert e.coeff(e.terms()[0][0]) == QuadScalar(1)


def test_linear_structure():
    rng = random.Random(3)
    n = 3
    xs = [AlgebraElement.from_matching(random_matching(n, rng)) for _ in range(3)]
    x, y, z = xs
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert (x - x).is_zero
    assert x.scale(2) == x + x
    assert -x == x.scale(-1)


def test_multiplication_is_associative_and_distributive():
    rng = random.Random(17)
    lam = Fraction(5, 2)
    for _ in range(30):
        n = rng.randint(2, 4)
        x, y, z = (
            AlgebraElement.from_matching(random_matching(n, rng))
            + AlgebraElement.from_matching(random_matching(n, rng)).scale(
                Fraction(rng.randint(-3, 3))
            )
            for _ in range(3)
        )
        assert element_multiply(element_multiply(x, y, lam), z, lam) == (
            element_multiply(x, element_multiply(y, z, lam), lam)
        )
        assert element_multiply(x, y + z, lam) == (
            element_multiply(x, y, lam) + element_multiply(x, z, lam)
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
        x + y,
        x - y,
        x.scale(s),
        element_multiply(x, y, Fraction(5, 2)),
        element_multiply(x, y, 2),
    ):
        checked = AlgebraElement(result.n, dict(result.terms()))
        assert result == checked
        assert result.terms() == checked.terms()
        assert hash(result) == hash(checked)
        assert all(not c.is_zero for _, c in result.terms())


def glued_product(x, y, lam):
    """x * y term by term through `compose`, weighting each loop by lam."""
    lam = as_scalar(lam)
    terms = {}
    for mx, cx in x.terms():
        for my, cy in y.terms():
            glued, loops = compose(mx, my)
            terms[glued] = terms.get(glued, ZERO) + cx * cy * lam**loops
    return AlgebraElement(x.n, terms)


SQRT5 = QuadScalar.root(5)


@st.composite
def generator_span_products(draw):
    """x from random matchings and cups, y a combination of generators.

    y's terms are the identity and e_i, v_i at one or two sites, as in the
    images of rho and its inverse, with coefficients that cancel often.
    """
    n = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [random_matching(n, rng) for _ in range(3)]
    pool += [e_diagram(i, n) for i in range(1, n)]
    coeffs = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), SQRT5])
    x_terms = {}
    for m in draw(st.lists(st.sampled_from(pool), max_size=5)):
        x_terms[m] = as_scalar(draw(coeffs))
    generators = [identity_diagram(n)]
    for i in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2)):
        generators += [e_diagram(i, n), v_diagram(i, n)]
    y_terms = {g: as_scalar(draw(coeffs)) for g in generators}
    return AlgebraElement(n, x_terms), AlgebraElement(n, y_terms)


@given(generator_span_products(), st.sampled_from([0, 1, 3, Fraction(5, 2)]))
@settings(max_examples=300, deadline=None)
def test_generator_products_equal_glued_products(pair, lam):
    x, y = pair
    got = element_multiply(x, y, lam)
    want = glued_product(x, y, lam)
    assert got == want
    assert got.terms() == want.terms()
    assert hash(got) == hash(want)


def test_generator_products_weight_loops_and_cancel(monkeypatch):
    def no_compose(upper, lower):
        raise AssertionError("a generator product went through compose")

    monkeypatch.setattr(elements, "compose", no_compose)
    lam = Fraction(5, 2)
    e = e_element(2, 4)
    # e (lam - e) = lam e - lam e: the loop's lambda cancels the other term
    annihilator = identity_element(4).scale(lam) - e
    assert element_multiply(e, annihilator, lam).is_zero
    # e (e + v) = lam e + e v, and e v = e
    shifted = e + v_element(2, 4)
    assert element_multiply(e, shifted, lam) == e.scale(lam + 1)


def test_cup_factor_sums_what_lands_on_one_diagram(monkeypatch):
    """Four diagrams of x land on e_1 under a right e_1, one closing a loop;
    coefficients in Q(sqrt 5), alone and beside an identity term."""
    n, lam = 3, 3
    b = QuadScalar(Fraction(-3, 2), Fraction(1, 2), 5)  # root of b^2 + 3b + 1
    e1 = e_diagram(1, n)
    landing = [
        identity_diagram(n),
        v_diagram(1, n),
        e1,
        Matching(n, [(0, 1), (2, 4), (3, 5)]),  # T1-T2, T3-B2, B1-B3
    ]
    coeffs = [as_scalar(1), SQRT5, as_scalar(Fraction(1, 2)) - SQRT5, as_scalar(3)]
    assert [apply_generator(m, CUP, 1) for m in landing] == [(e1, 0), (e1, 0), (e1, 1), (e1, 0)]
    x = AlgebraElement(n, dict(zip(landing, coeffs)))
    ys = [
        AlgebraElement(n, {e1: b}),
        AlgebraElement(n, {e1: b, identity_diagram(n): as_scalar(2) - SQRT5}),
    ]
    wants = [glued_product(x, y, lam) for y in ys]
    assert wants[0].terms() == [(e1, b * (coeffs[0] + coeffs[1] + lam * coeffs[2] + coeffs[3]))]

    def no_compose(upper, lower):
        raise AssertionError("a generator product went through compose")

    monkeypatch.setattr(elements, "compose", no_compose)
    for y, want in zip(ys, wants):
        got = element_multiply(x, y, lam)
        assert got == want
        assert got.terms() == want.terms()


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
    annihilator = e - identity_element(3).scale(lam)
    assert element_multiply(e, annihilator, lam).is_zero
    assert not annihilator.is_zero
    assert element_inverse(e, lam) is None
    assert element_inverse(AlgebraElement.zero(3), lam) is None


def test_inverse_of_shifted_cupcap():
    # (1 + e)^-1 = 1 - e/(1+lam) whenever lam != -1
    lam = Fraction(3)
    one = identity_element(3)
    x = one + e_element(1, 3)
    inv = element_inverse(x, lam)
    assert inv == one - e_element(1, 3).scale(Fraction(1, 4))
    assert element_multiply(x, inv, lam) == one
    assert element_multiply(inv, x, lam) == one


def test_inverse_over_irrational_field():
    lam = 3
    b = QuadScalar(Fraction(-3, 2), Fraction(1, 2), 5)  # root of b^2+3b+1
    one = identity_element(3)
    x = one + e_element(1, 3).scale(b)
    inv = element_inverse(x, lam)
    assert inv is not None
    assert element_multiply(x, inv, lam) == one


def test_strand_mismatch_rejected():
    with pytest.raises(StrandMismatchError):
        identity_element(2) + identity_element(3)
    with pytest.raises(StrandMismatchError):
        identity_element(2) - identity_element(3)
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
