"""Brute-force expansion cross-check of the stored linear identity."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from vtl.expand import (
    braid_matches_registry,
    expand_bgr,
    normal_form,
    registry_combo,
)
from vtl.expressions import Expr
from vtl.rho import RhoParams, solve_ab
from vtl.scalars import QuadScalar, as_scalar
from vtl.words import parse_word

LAM = as_scalar(7)
E1, E2, V1, V2 = parse_word("e1 e2 v1 v2", 3).symbols


def w(text):
    return parse_word(text, 3).symbols


def nf(*texts):
    return normal_form(Expr({w(t): as_scalar(1) for t in texts}), LAM)


def test_letter_rules_fire():
    assert nf("e1 e1") == Expr({w("e1"): LAM})
    assert nf("v1 v1") == Expr.one()
    assert nf("e1 e2 e1") == Expr({w("e1"): as_scalar(1)})
    assert nf("v1 e1") == Expr({w("e1 v1"): as_scalar(1)})
    assert nf("v2 e1 v2") == Expr({w("v1 e2 v1"): as_scalar(1)})


def test_derived_rules_are_consequences_of_the_sandwich_move():
    # v1 v2 e1 == e2 v1 v2 and v2 v1 e2 == e1 v2 v1 normalize to the same
    # form as their partners
    assert nf("v1 v2 e1") == nf("e2 v1 v2")
    assert nf("v2 v1 e2") == nf("e1 v2 v1")


def test_cancellation_collects_coefficients():
    expr = Expr({w("e1"): as_scalar(3), w("e1 e1"): as_scalar(-1)})
    assert normal_form(expr, LAM) == Expr({w("e1"): as_scalar(3) - LAM})
    gone = Expr({w("v1 v1 v1"): as_scalar(2), w("v1"): as_scalar(-2)})
    assert normal_form(gone, LAM).is_zero


words = st.lists(st.sampled_from([E1, E2, V1, V2]), max_size=9).map(tuple)


@given(words)
@settings(max_examples=300, deadline=None)
def test_rewriting_terminates_heading_downhill(word):
    """Normal forms exist: every rule shortens the word or lowers it
    lexicographically in the e1 < e2 < v1 < v2 order, so rewriting halts."""
    out = normal_form(Expr({word: as_scalar(1)}), LAM)
    rank = {E1: 0, E2: 1, V1: 2, V2: 3}
    for reduced in out.terms:
        assert len(reduced) <= len(word)
        assert (len(reduced), [rank[s] for s in reduced]) <= (
            len(word),
            [rank[s] for s in word],
        )


@given(words)
@settings(max_examples=200, deadline=None)
def test_rewriting_is_sound_in_diagram_algebra(word):
    """Every rule is a consequence of the defining relations, so reducing a
    word must not change its value as a diagram-algebra element."""
    from vtl.reps import DiagramRep, evaluate_word

    rep = DiagramRep(3, LAM)
    before = evaluate_word(word, rep)
    after = rep.zero()
    for reduced, coeff in normal_form(Expr({word: as_scalar(1)}), LAM).terms.items():
        after = after + evaluate_word(reduced, rep).scale(coeff)
    assert before == after


def test_expansion_matches_registry_generic_rationals():
    for a, b, c, lam in [
        (2, 3, 5, 7),
        (1, -1, 1, 2),
        (Fraction(1, 2), Fraction(-2, 3), Fraction(4, 5), Fraction(5, 2)),
        (0, 1, 4, 3),
        (-3, 2, 0, Fraction(1, 3)),
    ]:
        p = RhoParams.make(a, b, c, lam)
        assert braid_matches_registry(p)


def test_expansion_matches_registry_over_quadratic_field():
    lam = Fraction(3)
    b = solve_ab(lam)[0]
    p = RhoParams.make(1, b, Fraction(1, 2), lam)
    assert braid_matches_registry(p)
    assert expand_bgr(p) == registry_combo(p)


def test_expansion_collapses_at_solved_parameters():
    """With c = 0 and b a solved root the whole difference reduces to zero."""
    lam = Fraction(5, 2)
    for which in (0, 1):
        p = RhoParams.make(1, solve_ab(lam)[which], 0, lam)
        assert expand_bgr(p).is_zero


def test_registry_perturbation_is_detected():
    """Oracle sensitivity: scaling one stored group breaks the match."""
    p = RhoParams.make(2, 3, 5, 7)
    honest = registry_combo(p)
    terms = dict(honest.terms)
    terms[(V1,)] = terms[(V1,)] * QuadScalar(2)
    assert Expr(terms) != expand_bgr(p)
    assert honest == expand_bgr(p)


def test_braid_matches_registry_across_a_sequence_of_points():
    """In one process the cross-check holds at each point of a sequence,
    also on coming back to an earlier point."""
    points = [
        RhoParams.make(1, solve_ab(3)[0], 1, 3),
        RhoParams.make(1, 2, 3, Fraction(5, 2)),
        RhoParams.make(1, -1, 1, 2),
        RhoParams.make(2, 3, 5, 7),
    ]
    for p in points + points[::-1]:
        assert braid_matches_registry(p)
    combos = {str(registry_combo(p)) for p in points}
    assert len(combos) == len(points)
