"""Relation registry: instances, exact checks, and parameter conditions."""

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from vtl import relations
from vtl.elements import element_multiply, v_element
from vtl.errors import DegenerateParamsError
from vtl.expressions import gen_e, gen_v
from vtl.linalg import DenseMatrix, rank
from vtl.relations import (
    FAMILIES,
    check_relation,
    f_slide_expr,
    f_word_expr,
    placements,
    relation_instances,
)
from vtl.reps import DiagramRep, MatrixRep, evaluate_expr
from vtl.rho import RhoParams, solve_ab
from vtl.scalars import QuadScalar

ALWAYS_ZERO = ("TLR", "VCR", "VEV", "VBR", "brauer", "f_explicit")


def params_at(a, b, c, lam):
    return RhoParams.make(a, b, c, lam)


def solved_params(lam, which=0, c=0):
    return RhoParams.make(1, solve_ab(lam)[which], c, lam)


def residual(family, rep, params, n=None):
    """Largest family residual; zero AlgebraElement/DenseMatrix when all hold."""
    n = n or rep.n
    out = []
    for inst in relation_instances(family, n, params):
        lhs = evaluate_expr(inst.lhs, rep, params)
        rhs = evaluate_expr(inst.rhs, rep, params)
        out.append(lhs - rhs)
    return out


# --- instance enumeration -------------------------------------------------


def test_crossing_family_count_matches_presentation():
    insts = relation_instances("VCR", 3)
    assert len(insts) == 3
    assert [i.variant for i in insts] == ["square", "square", "braid"]
    assert [i.site for i in insts] == [1, 2, 1]


def test_instance_counts():
    lam = Fraction(2)
    p = solved_params(lam)
    assert len(relation_instances("TLR", 3, p)) == 4
    assert len(relation_instances("TLR", 4, p)) == 8
    assert len(relation_instances("VEV", 4)) == 7
    assert len(relation_instances("brauer", 3)) == 8
    assert len(relation_instances("BGR", 4)) == 3
    assert len(relation_instances("fstar", 3)) == 2
    assert len(relation_instances("f_explicit", 3)) == 3
    assert len(relation_instances("vTL", 4, p)) == 2


def test_sites_ascend_within_variant():
    insts = relation_instances("brauer", 5)
    ev_sites = [i.site for i in insts if i.variant == "ev"]
    assert ev_sites == sorted(ev_sites)


def test_unknown_family_lists_known_ones():
    with pytest.raises(ValueError) as err:
        relation_instances("nope", 3)
    assert "TLR" in str(err.value)


def test_min_strand_validation():
    with pytest.raises(ValueError):
        relation_instances("BGR", 2)
    with pytest.raises(ValueError):
        relation_instances("vTL", 2, solved_params(2))


def test_parametric_families_require_params():
    with pytest.raises(ValueError):
        relation_instances("vTL", 3)
    with pytest.raises(ValueError):
        relation_instances("TLR", 3)


# Digest of every instance at n = min_n..7 and two parameter points, one
# rational and one in Q(sqrt 5): family, n, site, variant, lhs, rhs, and each
# group's name, coefficient and expression.
REGISTRY_DIGESTS = {
    "TLR": "354f45e65881a45b3b0fe4f36a3a92164f608b6a53310c8522faca5a35e1be86",
    "VCR": "868914c00917c2b9c51ef9ff4bb887e9dd47481359124ba5e02ee615e43b2924",
    "VEV": "0d009c7afb00b6d08b44094d2620526aabfb6d9ce78716b22550e7b69343d6b9",
    "VBR": "5998435e26762659462e459d0f4e887ad070174508466f4108fefa28b811c83b",
    "BGR": "252f514a804ab0f52aaf9380c88807f8e09595cbf4ffcdce9ba22eae4422b65f",
    "F1": "734d315ed0ed99e04644ba2b57e186004abd343507660462dde52cad0b40201d",
    "F2": "857577cdbbd20d3ea6ca1580cd48e2afeef58dd99e3c617b7dd6beea7708c0be",
    "vTL": "3e8e79dfd842499be68a13c67980751634e7a363ff2e9bb8dae1c24f0b17b655",
    "FF1": "63c145d33e20cd3b012f17f62c6ec281f0265246523145c8eab5fdc3f96b2391",
    "wTL1": "deee571cc8e6485eff7cc3eb999fd243d5ff963ef3e5a3d087af7122323f5d0d",
    "FF2": "71aa9ebcf8fb27b59f66bdef862123832af8ad9a31b5aee7b6c3a221ac63ef7e",
    "wTL2": "0a6960f8ae1c37b4d6ccb1b28f39cd21acb3aab1d6f82a5e7abe4ccf13ade73b",
    "brauer": "a1a67bd836ab51e16792d818609680a6bbb825b34feb0ec3dc38b07635363cc8",
    "brvtl": "840bb23216105dbc6b0da7490e516a16430bf55c75b1e4ef43346f9bd2c44a52",
    "f_explicit": "45917c8276f9d0786603aba85db92aea99d25efdc168f73fd2f7bc63924fff3b",
    "fstar": "601d7ef38f9ac5a8ec0d1cd7b81eed5e49890e966c7e3b39d97523880578c156",
}


@pytest.mark.parametrize("family", sorted(REGISTRY_DIGESTS))
def test_registry_instances_match_pinned_digest(family):
    h = hashlib.sha256()
    for p in (params_at(1, 2, 3, Fraction(5, 2)), solved_params(3, c=1)):
        for n in range(FAMILIES[family].min_n, 8):
            for inst in relation_instances(family, n, p):
                groups = [(g.name, repr(g.coeff), repr(g.expr)) for g in inst.groups]
                fields = (
                    inst.family, inst.n, inst.site, inst.variant,
                    repr(inst.lhs), repr(inst.rhs), groups,
                )
                h.update(repr(fields).encode())
    assert h.hexdigest() == REGISTRY_DIGESTS[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_instances_act_on_their_placement_strands(family):
    """Each instance is its shape lifted onto the placement's strands, and
    every generator it uses acts on two of those strands."""
    for p in (params_at(1, 2, 3, Fraction(5, 2)), solved_params(3, c=1)):
        for n in range(FAMILIES[family].min_n, 8):
            places = placements(family, n, p)
            insts = relation_instances(family, n, p)
            assert len(places) == len(insts)
            for place, inst in zip(places, insts):
                strands = place.strands
                assert list(strands) == sorted(set(strands))
                assert 1 <= strands[0] and strands[-1] <= n
                assert place.shape.n == len(strands) <= 4
                assert place.shape.family == inst.family == family
                assert (inst.site, inst.variant) == (place.site, place.variant)
                assert inst.site == strands[place.shape.site - 1]
                exprs = [inst.lhs, inst.rhs] + [g.expr for g in inst.groups]
                for expr in exprs:
                    for word in expr.terms:
                        for sym in word:
                            assert {sym.index, sym.index + 1} <= set(strands)


# --- structural families hold identically ---------------------------------


@pytest.mark.parametrize("family", ALWAYS_ZERO)
@pytest.mark.parametrize("n,lam", [(3, Fraction(2)), (4, Fraction(5, 2)), (5, 3)])
def test_structural_families_hold_in_diagram_algebra(family, n, lam):
    rep = DiagramRep(n, lam)
    p = solved_params(lam)
    for r in residual(family, rep, p):
        assert r.is_zero


@pytest.mark.parametrize("family", ALWAYS_ZERO)
@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
def test_structural_families_hold_in_matrix_model(family, n, d):
    rep = MatrixRep(n, d)
    p = solved_params(d)
    for r in residual(family, rep, p):
        assert r.is_zero


def test_braid_family_holds_at_solved_parameters():
    for lam in (Fraction(2), Fraction(5, 2), Fraction(3), Fraction(-1)):
        rep = DiagramRep(3, lam)
        for which in (0, 1):
            p = solved_params(lam, which)
            for r in residual("BGR", rep, p):
                assert r.is_zero
            for r in residual("vTL", rep, p):
                assert r.is_zero


def test_braid_family_fails_off_the_solution_curve():
    lam = Fraction(3)
    rep = DiagramRep(3, lam)
    p = params_at(1, 1, 0, lam)  # 1 + lam + 1 != 0
    assert any(not r.is_zero for r in residual("BGR", rep, p))


# --- the linear identity and its halves -----------------------------------


def test_linear_identity_tracks_braid_relation():
    """vTL and BGR have the same residual once the structure relations hold."""
    lam = Fraction(2)
    rep = DiagramRep(3, lam)
    for (a, b, c) in [(1, -1, 1), (2, 3, 5), (0, 1, 1), (1, -1, 0)]:
        p = params_at(a, b, c, lam)
        (r_bgr,) = residual("BGR", rep, p)
        (r_vtl,) = residual("vTL", rep, p)
        assert r_bgr == r_vtl


def test_linear_identity_needs_c_zero_in_diagram_algebra():
    lam = Fraction(2)
    rep = DiagramRep(3, lam)
    ok = params_at(1, -1, 0, lam)
    for r in residual("vTL", rep, ok):
        assert r.is_zero
    bad = params_at(1, -1, 1, lam)  # a^2 c != 0
    (r,) = residual("vTL", rep, bad)
    assert not r.is_zero


def test_linear_identity_holds_at_d2_for_any_c():
    rep = MatrixRep(3, 2)
    for c in (0, 1, Fraction(-7, 3)):
        p = params_at(1, -1, c, 2)
        for fam in ("vTL", "BGR", "FF1", "FF2", "F1", "F2", "wTL1", "wTL2"):
            for r in residual(fam, rep, p):
                assert r.is_zero, (fam, c)


def test_halves_fail_in_diagram_algebra_even_at_two():
    rep = DiagramRep(3, 2)
    p = params_at(1, -1, 0, 2)
    for fam in ("FF1", "FF2"):
        (r,) = residual(fam, rep, p)
        assert not r.is_zero


def test_eliminated_forms_hold_in_both_representations_at_two():
    p = params_at(1, -1, Fraction(5, 7), 2)
    for rep in (DiagramRep(3, 2), MatrixRep(3, 2)):
        for fam in ("wTL1", "wTL2"):
            for r in residual(fam, rep, p):
                assert r.is_zero


def test_eliminated_forms_fail_at_generic_loop_value():
    lam = Fraction(3)
    rep = DiagramRep(3, lam)
    p = solved_params(lam, 0, c=1)
    for fam in ("wTL1", "wTL2"):
        (r,) = residual(fam, rep, p)
        assert not r.is_zero


def test_brauer_form_of_linear_identity_matches_it():
    """In the diagram algebra the slide axioms hold, so vTL == brvtl there."""
    rep = DiagramRep(3, 2)
    for (a, b, c) in [(1, -1, 1), (2, 3, 5), (1, 0, 3)]:
        p = params_at(a, b, c, 2)
        if p.is_degenerate:
            continue
        (r_vtl,) = residual("vTL", rep, p)
        (r_br,) = residual("brvtl", rep, p)
        assert r_vtl == r_br


# --- complement moves and the d = 2 degeneracy -----------------------------


def test_complement_moves_fail_in_diagram_algebra():
    for lam in (2, 3, Fraction(5, 2)):
        rep = DiagramRep(3, lam)
        p = solved_params(Fraction(lam))
        rs = residual("fstar", rep, p)
        assert len(rs) == 2
        for r in rs:
            assert not r.is_zero
        # both moves leave the same obstruction element
        assert rs[0] == rs[1]


def test_complement_moves_hold_exactly_at_d2_and_only_there():
    rep2 = MatrixRep(3, 2)
    p2 = solved_params(2)
    for r in residual("fstar", rep2, p2):
        assert r.is_zero
    rep3 = MatrixRep(3, 3)
    p3 = solved_params(3)
    for r in residual("fstar", rep3, p3):
        assert not r.is_zero


def kappa_ingredients(rep):
    """The eight products entering the obstruction, as rep values."""
    u, w = rep.v(1), rep.v(2)
    x, y = rep.e(1), rep.e(2)
    return [
        u,
        w,
        x,
        y,
        rep.mul(w, x),
        rep.mul(y, u),
        rep.mul(x, w),
        rep.mul(u, y),
    ]


KAPPA_SIGNS = [1, -1, -1, 1, 1, -1, 1, -1]


def test_obstruction_vanishes_at_d2():
    rep = MatrixRep(3, 2)
    total = rep.zero()
    for s, m in zip(KAPPA_SIGNS, kappa_ingredients(rep)):
        total = total + m.scale(s)
    assert total.is_zero


def test_obstruction_nonzero_at_d3_and_in_diagram_algebra():
    rep = MatrixRep(3, 3)
    total = rep.zero()
    for s, m in zip(KAPPA_SIGNS, kappa_ingredients(rep)):
        total = total + m.scale(s)
    assert not total.is_zero

    drep = DiagramRep(3, 2)
    dtotal = drep.zero()
    for s, m in zip(KAPPA_SIGNS, kappa_ingredients(drep)):
        dtotal = dtotal + m.scale(s)
    assert not dtotal.is_zero
    # in the diagram algebra all eight products are distinct matchings
    assert len(dtotal.terms()) == 8


def flatten_stack(mats):
    return DenseMatrix([[e for row in m.entries for e in row] for m in mats])


def test_rank_of_the_eight_products():
    """d = 2 has exactly one linear relation among the eight; d = 3 none."""
    assert rank(flatten_stack(kappa_ingredients(MatrixRep(3, 2)))) == 7
    assert rank(flatten_stack(kappa_ingredients(MatrixRep(3, 3)))) == 8


# --- bracketed combinations ------------------------------------------------


def test_bracket_slide_forms_are_equal_in_diagram_algebra():
    rep = DiagramRep(4, Fraction(7, 2))
    for i in (1, 2):
        for j in (0, 1, 2):
            lhs = evaluate_expr(f_word_expr(j, i), rep)
            rhs = evaluate_expr(f_slide_expr(j, i), rep)
            assert lhs == rhs


def test_brackets_are_nonzero_elements():
    rep = DiagramRep(3, 2)
    for j in (0, 1, 2):
        val = evaluate_expr(f_word_expr(j, 1), rep)
        assert not val.is_zero


def test_bracket_input_validation():
    with pytest.raises(ValueError):
        f_word_expr(3, 1)
    with pytest.raises(ValueError):
        f_slide_expr(-1, 1)


# --- check_relation mechanics ----------------------------------------------


def test_check_relation_reports_pass():
    lam = Fraction(5, 2)
    rep = DiagramRep(3, lam)
    p = solved_params(lam)
    inst = relation_instances("vTL", 3, p)[0]
    report = check_relation(inst, rep, p)
    assert report.residual_zero
    assert report.residual_norm == "0"
    assert report.witness is None
    assert report.groups is None
    obj = report.to_obj()
    assert obj["family"] == "vTL"
    assert obj["params"]["lambda"] == {
        "x_num": 5,
        "x_den": 2,
        "y_num": 0,
        "y_den": 1,
        "D_num": 0,
        "D_den": 1,
    }


def test_check_relation_reports_group_breakdown_on_failure():
    rep = DiagramRep(3, 2)
    p = params_at(1, -1, 1, 2)
    inst = relation_instances("vTL", 3, p)[0]
    report = check_relation(inst, rep, p)
    assert not report.residual_zero
    assert report.witness is not None
    # e_diff coefficient b(a^2 + ab lam + b^2) vanishes at this point
    assert report.groups["e_diff"] is True
    assert report.groups["v_diff"] is False
    assert report.groups["f0"] is False


# The families built by `_linear`, the only code that gives an instance groups.
LINEAR_FAMILIES = {"vTL", "FF1", "FF2", "wTL1", "wTL2", "brvtl"}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_check_relation_rejects_degenerate_regime(family):
    """b = 0, a*c != 0 is refused exactly for the linear families; every
    other family still runs there."""
    p = params_at(1, 0, 1, 2)
    assert p.is_degenerate
    rep = DiagramRep(3, 2)
    instances = relation_instances(family, 3, p)
    assert instances
    for inst in instances:
        assert bool(inst.groups) == (family in LINEAR_FAMILIES)
        if family in LINEAR_FAMILIES:
            with pytest.raises(DegenerateParamsError):
                check_relation(inst, rep, p)
        else:
            check_relation(inst, rep, p)


def test_check_relation_rejects_lambda_mismatch():
    p = solved_params(2)
    rep = DiagramRep(3, 3)
    inst = relation_instances("TLR", 3, p)[0]
    with pytest.raises(ValueError):
        check_relation(inst, rep, p)


def test_degenerate_regime_really_forces_crossing_collapse():
    """At b = 0 the identity reduces to a^2 c (v_i - v_{i+1}), which has no
    reason to vanish: refusing these parameters is the honest outcome."""
    rep = DiagramRep(3, 2)
    p = params_at(1, 0, 1, 2)
    insts = relation_instances("vTL", 3, p)
    lhs = evaluate_expr(insts[0].lhs, rep, p)
    expected = v_element(1, 3) - v_element(2, 3)
    assert lhs == expected


def test_registry_is_closed_and_documented():
    assert set(FAMILIES) == {
        "TLR",
        "VCR",
        "VEV",
        "VBR",
        "BGR",
        "F1",
        "F2",
        "vTL",
        "FF1",
        "wTL1",
        "FF2",
        "wTL2",
        "brauer",
        "brvtl",
        "f_explicit",
        "fstar",
    }


# --- solved parameters ------------------------------------------------------


def test_solve_ab_rational_cases():
    bp, bm = solve_ab(Fraction(5, 2))
    assert bp == QuadScalar(Fraction(-1, 2))
    assert bm == QuadScalar(-2)
    bp2, bm2 = solve_ab(2)
    assert bp2 == bm2 == QuadScalar(-1)


def test_solve_ab_vieta():
    for lam in (2, 3, Fraction(5, 2), Fraction(-7, 3), 10):
        lam = Fraction(lam)
        bp, bm = solve_ab(lam)
        assert bp * bm == QuadScalar(1)
        assert bp + bm == QuadScalar(-lam)
        for b in (bp, bm):
            assert b * b + lam * b + QuadScalar(1) == QuadScalar(0)


def test_solve_ab_rejects_irrational_input():
    with pytest.raises(ValueError):
        solve_ab(QuadScalar.root(5))


def test_crossing_conjugation_of_braid_elements():
    """v1 r2 v1 = v2 r1 v2 as elements, for any parameters."""
    lam = Fraction(5, 2)
    p = params_at(2, 3, Fraction(-1, 2), lam)
    rep = DiagramRep(3, lam)
    for r in residual("VBR", rep, p):
        assert r.is_zero


def _fresh_registry(point, n):
    """placements and relation_instances of every family at one point, from
    a new interpreter, where no other point was ever built."""
    code = (
        "import pickle, sys\n"
        "from vtl.relations import FAMILIES, placements, relation_instances\n"
        "p, n = pickle.load(sys.stdin.buffer)\n"
        "out = {f: (placements(f, n, p), relation_instances(f, n, p)) for f in FAMILIES}\n"
        "sys.stdout.buffer.write(pickle.dumps(out))\n"
    )
    src = pathlib.Path(relations.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps((point, n)),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
        timeout=120,
    )
    return pickle.loads(done.stdout)


def test_registry_gives_each_point_its_own_coefficients():
    """Alternating two parameter points, every family's placements and
    instances equal those of a fresh process: nothing of one point is left
    in the other's."""
    points = [params_at(1, solve_ab(3)[0], 1, 3), params_at(1, 2, 3, Fraction(5, 2))]
    fresh = [_fresh_registry(p, 5) for p in points]
    for round_ in range(2):
        for point, want in zip(points, fresh):
            for family in FAMILIES:
                got = (
                    placements(family, 5, point),
                    relation_instances(family, 5, point),
                )
                assert got == want[family], (round_, family)
    one, other = (placements("vTL", 3, p)[0].shape for p in points)
    assert one != other
