"""Algebra elements: linear combinations of matchings.

`element_multiply_oracle`, `glued_terms_oracle` and `closure_trace_oracle`
below are the QuadScalar forms of the product and the trace, one scalar
operation at a time, as `element_multiply` and `closure_trace` computed them
before coefficients became int pairs over one denominator.  The int-pair
arithmetic is checked against them on random elements in several fields.
"""

import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vtl import elements
from vtl.diagrams import (
    Matching,
    closure_loops,
    compose,
    e_diagram,
    generator_table,
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
from vtl.errors import FieldMismatchError, StrandMismatchError
from vtl.reps import DiagramRep, symbol_image
from vtl.rho import RhoParams, solve_ab
from vtl.scalars import ONE, ZERO, QuadScalar, as_scalar
from vtl.words import parse_word


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


def element_multiply_oracle(x, y, lam):
    """The terms of x * y in QuadScalar arithmetic, as a {matching: scalar} dict.

    When y's terms are all generator matchings, what lands on one diagram
    under each of them is summed before it is scaled by that term's
    coefficient; any other right factor goes through `glued_terms_oracle`.
    Products of diagrams come from `compose` either way, not from the
    generator kernel that `element_multiply` uses.
    """
    lam = as_scalar(lam)
    table = generator_table(y.n)
    if any(my not in table for my, _ in y.terms()):
        return glued_terms_oracle(x, y, lam)
    terms = {}
    for my, cy in y.terms():
        images = {}
        for mx, cx in x.terms():
            glued, loops = compose(mx, my)
            if loops:  # a product closes at most one loop
                cx = cx * lam
            prev = images.get(glued)
            images[glued] = cx if prev is None else prev + cx
        unit = cy == ONE
        for glued, c in images.items():
            weight = c if unit else c * cy
            prev = terms.get(glued)
            terms[glued] = weight if prev is None else prev + weight
    return terms


def glued_terms_oracle(x, y, lam):
    """The terms of x * y, each pair of diagrams glued by `compose`."""
    lam_pow = [ONE]  # lam_pow[k] = lam**k, grown as more loops close
    terms = {}
    for mx, cx in x.terms():
        for my, cy in y.terms():
            glued, loops = compose(mx, my)
            weight = cx * cy
            if loops:
                while len(lam_pow) <= loops:
                    lam_pow.append(lam_pow[-1] * lam)
                weight = weight * lam_pow[loops]
            prev = terms.get(glued)
            terms[glued] = weight if prev is None else prev + weight
    return terms


def closure_trace_oracle(x, lam):
    """Markov trace in QuadScalar arithmetic, summed per closure-loop count."""
    lam = as_scalar(lam)
    by_loops = {}
    for m, c in x.terms():
        k = closure_loops(m)
        prev = by_loops.get(k)
        by_loops[k] = c if prev is None else prev + c
    total = ZERO
    for k in sorted(by_loops):
        total = total + by_loops[k] * lam**k
    return total


def canonical(terms):
    """A {matching: scalar} dict as an element's `terms()` lists it."""
    return sorted(((m, c) for m, c in terms.items() if not c.is_zero), key=lambda t: t[0])


def glued_product(x, y, lam):
    """x * y term by term through `compose`, weighting each loop by lam."""
    return AlgebraElement(x.n, glued_terms_oracle(x, y, as_scalar(lam)))


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
    assert [compose(m, e1) for m in landing] == [(e1, 0), (e1, 0), (e1, 1), (e1, 0)]
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


# Coefficient fields of the oracle checks, each with a root b of
# b^2 + lambda0 b + 1 = 0 from `solve_ab` (None for Q) and the loop values
# used there.  Q(sqrt(33/4)) keeps its stored D = 33/4, the field of
# `--lambda 7/2`; rational elements also meet a lambda in Q(sqrt 5).
ORACLE_FIELDS = {
    "Q": (None, [0, 1, 3, Fraction(5, 2), QuadScalar(1, 1, 5)]),
    "sqrt5": (solve_ab(3)[0], [0, 3, Fraction(5, 2), QuadScalar(1, 1, 5), QuadScalar.root(5)]),
    "sqrt33/4": (solve_ab(Fraction(7, 2))[0], [0, Fraction(7, 2), Fraction(1, 3)]),
    "sqrt-3": (solve_ab(1)[0], [1, Fraction(-2, 3)]),
}


@st.composite
def oracle_cases(draw):
    """Two elements x, x2, a right factor y, lambda and a scalar s in one field.

    y is a combination of generator matchings (the identity and e_i, v_i
    at up to two sites) or of the general matchings that x draws from.
    Each element comes with the {matching: scalar} dict it was built from.
    """
    field = draw(st.sampled_from(sorted(ORACLE_FIELDS)))
    root, lams = ORACLE_FIELDS[field]
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rationals = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])

    def coeff():
        c = as_scalar(draw(rationals))
        return c if root is None else c + root * draw(rationals)

    def element(pool):
        terms = {m: coeff() for m in draw(st.lists(st.sampled_from(pool), max_size=5))}
        return AlgebraElement(n, terms), terms

    pool = [random_matching(n, rng) for _ in range(3)]
    pool += [e_diagram(i, n) for i in range(1, n)]
    generators = [identity_diagram(n)]
    if n > 1:
        for i in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2)):
            generators += [e_diagram(i, n), v_diagram(i, n)]
    x = element(pool)
    x2 = element(pool)
    y = element(generators if draw(st.booleans()) else pool)
    return pool, x, x2, y, draw(st.sampled_from(lams)), coeff()


def assert_terms(got, want_terms):
    """got holds exactly the scalars of want_terms, byte for byte."""
    want = canonical(want_terms)
    assert got.terms() == want
    assert json.dumps(got.to_obj()) == json.dumps(
        [{"matching": m.to_obj(), "coeff": c.to_obj()} for m, c in want]
    )
    rebuilt = AlgebraElement(got.n, want_terms)
    assert got == rebuilt
    assert hash(got) == hash(rebuilt)


@given(oracle_cases())
@settings(max_examples=400, deadline=None)
def test_int_pairs_agree_with_quadscalar_oracles(case):
    pool, (x, xt), (x2, x2t), (y, yt), lam, s = case
    assert_terms(x, xt)
    for m in pool:
        assert x.coeff(m).to_obj() == xt.get(m, ZERO).to_obj()
    sums = dict(xt)
    diffs = dict(xt)
    for m, c in x2t.items():
        sums[m] = sums.get(m, ZERO) + c
        diffs[m] = diffs.get(m, ZERO) - c
    assert_terms(x + x2, sums)
    assert_terms(x - x2, diffs)
    assert_terms(-x, {m: -c for m, c in xt.items()})
    assert_terms(x.scale(s), {m: s * c for m, c in xt.items()})
    for right in (y, x2):
        got = element_multiply(x, right, lam)
        assert_terms(got, element_multiply_oracle(x, right, lam))
        assert closure_trace(got, lam).to_obj() == closure_trace_oracle(got, lam).to_obj()
    assert closure_trace(x, lam).to_obj() == closure_trace_oracle(x, lam).to_obj()


SQRT3 = QuadScalar.root(3)


def test_rational_elements_combine_with_any_field():
    n = 3
    e1, one = e_diagram(1, n), identity_diagram(n)
    q = AlgebraElement(n, {e1: as_scalar(Fraction(1, 2)), one: as_scalar(2)})
    r = AlgebraElement(n, {e1: SQRT5})
    assert dict((q + r).terms()) == {one: as_scalar(2), e1: Fraction(1, 2) + SQRT5}
    assert (r - q).coeff(one) == as_scalar(-2)
    assert q.scale(SQRT5).coeff(one) == 2 * SQRT5
    for x, y, lam in ((q, r, 3), (r, q, 3), (q, q, SQRT5), (r, r, SQRT5)):
        assert_terms(element_multiply(x, y, lam), element_multiply_oracle(x, y, lam))
    assert closure_trace(q, SQRT5) == closure_trace_oracle(q, SQRT5)


def test_two_fields_raise_field_mismatch():
    n = 3
    e1, one = e_diagram(1, n), identity_diagram(n)
    r5 = AlgebraElement(n, {e1: SQRT5})
    r3 = AlgebraElement(n, {one: SQRT3})
    with pytest.raises(FieldMismatchError):
        r5 + r3
    with pytest.raises(FieldMismatchError):
        r5 - r3
    with pytest.raises(FieldMismatchError):
        element_multiply(r5, r3, 2)
    with pytest.raises(FieldMismatchError):
        element_multiply(r5, identity_element(n), SQRT3)
    with pytest.raises(FieldMismatchError):
        r5.scale(SQRT3)
    with pytest.raises(FieldMismatchError):
        closure_trace(r5, SQRT3)
    with pytest.raises(FieldMismatchError):
        AlgebraElement(n, {e1: SQRT5, one: SQRT3})


def test_one_value_has_one_stored_form():
    n = 3
    e1, one, v2 = e_diagram(1, n), identity_diagram(n), v_diagram(2, n)
    x = AlgebraElement(n, {e1: Fraction(3, 4) + SQRT5, one: as_scalar(Fraction(-5, 6)), v2: SQRT5})
    routes = [
        x.scale(2).scale(Fraction(1, 2)),
        x.scale(SQRT5).scale(SQRT5.inv()),
        (x + x) - x,
        -(-x),
        x + AlgebraElement.zero(n),
        AlgebraElement(n, dict(x.terms())),
        element_multiply(x, identity_element(n), Fraction(7, 3)),
        pickle.loads(pickle.dumps(x)),
    ]
    for y in routes:
        assert y == x
        assert hash(y) == hash(x)
        assert y.terms() == x.terms()
    # a result whose irrational parts cancel is rational again
    r = AlgebraElement(n, {e1: SQRT5})
    assert r.scale(SQRT5) == AlgebraElement(n, {e1: as_scalar(5)})
    assert hash(r.scale(SQRT5)) == hash(AlgebraElement(n, {e1: as_scalar(5)}))
    assert (x - x) == AlgebraElement.zero(n)
    assert hash(x - x) == hash(AlgebraElement.zero(n))


def test_terms_are_sorted_on_read_out_whatever_the_storage_order():
    """Terms are stored unordered and keyed by `Matching`s or plain tuples;
    every read-out sorts them by matching and hands out `Matching`s."""
    n, lam = 4, Fraction(5, 2)
    rng = random.Random(20)
    ms = [random_matching(n, rng) for _ in range(6)] + [e_diagram(2, n), v_diagram(3, n)]
    items = [(m, Fraction(k + 1, 3) + (SQRT5 if k % 2 else ZERO)) for k, m in enumerate(ms)]
    x = AlgebraElement(n, dict(items))
    y = AlgebraElement(n, dict(reversed(items)))
    assert list(x._terms) != list(y._terms)
    assert x == y and hash(x) == hash(y)
    assert x.terms() == y.terms() and x.to_obj() == y.to_obj()
    keys = [m for m, _ in x.terms()]
    assert keys == sorted(set(ms))
    # a product's keys are the plain tuples of the generator kernel
    z = element_multiply(x, v_element(1, n) + e_element(3, n), lam)
    assert {type(m) for m in z._terms} == {tuple}
    for elem in (x, y, z):
        terms = elem.terms()
        assert all(type(m) is Matching for m, _ in terms)
        assert [m for m, _ in terms] == sorted(elem._terms)
        assert elem.to_obj() == [{"matching": m.to_obj(), "coeff": c.to_obj()} for m, c in terms]
        witness = DiagramRep(n, lam).describe(elem)[1]
        assert terms[0][0] == min(elem._terms)
        assert witness["matching"] == terms[0][0].to_obj()
        back = pickle.loads(pickle.dumps(elem))
        assert back == elem and hash(back) == hash(elem) and back.terms() == terms


def test_results_are_pruned_and_divided_once():
    """A product whose identity and v_1 terms cancel and whose numerators
    share the factor 2 of its denominator is stored pruned and reduced; a
    dict with nothing to prune or divide is stored as it is."""
    n, lam = 3, 3
    one, v1, e2 = identity_diagram(n), v_diagram(1, n), e_diagram(2, n)
    half = as_scalar(Fraction(1, 2))
    x = AlgebraElement(n, {one: half, v1: half, e2: half})
    y = AlgebraElement(n, {one: as_scalar(2), v1: as_scalar(-2)})
    got = element_multiply(x, y, lam)  # (1 + v1 + e2)(1 - v1) = e2 - e2 v1
    assert_terms(got, element_multiply_oracle(x, y, lam))
    assert got._den == 1 and len(got._terms) == 2 and got.coeff(e2) == ONE
    glued = glued_product(x, y, lam)
    assert glued == got
    pairs = {tuple(one): (1, 0), tuple(e2): (3, 0)}
    kept = AlgebraElement._trusted(n, 2, None, pairs)
    assert kept._terms is pairs and kept.coeff(e2) == as_scalar(Fraction(3, 2))


# The n = 6 diagram word of the word_algebra benchmark: its fixed core w,
# then w^-1, at a = 1, b = b_plus, c = 1/2 and lambda = 3.
N6_CORE = "r1 v3 r2^-1 r5 r4^-1 r5 r1^-1 r3 r4^-1 r5 v2"
N6_CORE_INVERSE = "v2 r5^-1 r4 r3^-1 r1 r5^-1 r4 r5^-1 r2 v3 r1^-1"


def stored_bits(x):
    """Bit length of the widest int an element stores."""
    ints = [x._den] + [abs(i) for pair in x._terms.values() for i in pair]
    return max(i.bit_length() for i in ints)


def test_coefficients_stay_small_along_a_long_word():
    """Every product of w w^-1 stores ints of at most 32 bits.

    22 bits were measured.  Without the gcd reduction of each result the
    widest int reaches 56 bits and the product is not stored as the identity.
    """
    lam = 3
    params = RhoParams.make(1, solve_ab(lam)[0], Fraction(1, 2), lam)
    rep = DiagramRep(6, lam)
    images = {}
    out = None
    widest = 0
    for sym in parse_word(f"{N6_CORE} {N6_CORE_INVERSE}", 6).symbols:
        image = images.get(sym)
        if image is None:
            image = images[sym] = symbol_image(rep, sym, params)
            widest = max(widest, stored_bits(image))
        out = image if out is None else element_multiply(out, image, lam)
        widest = max(widest, stored_bits(out))
    assert widest <= 32
    assert out == identity_element(6)
