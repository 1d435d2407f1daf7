"""Verification engine: expectations, statuses, and the report envelope."""

from fractions import Fraction

import pytest

from vtl.relations import params_obj
from vtl.reps import DiagramRep, MatrixRep
from vtl.rho import RhoParams, solve_ab
from vtl.verify import ALGEBRA_FAMILIES, VerifyRequest, expected_zero, run_verify


def params_at(a, b, c, lam):
    return RhoParams.make(a, b, c, lam)


def solved(lam, c=0):
    return RhoParams.make(1, solve_ab(lam)[0], c, lam)


def by_family(report, family):
    return [c for c in report["checks"] if c["family"] == family]


def test_expected_zero_structural_families():
    rep = DiagramRep(3, 2)
    p = solved(2)
    for fam in ("TLR", "VCR", "VEV", "VBR", "brauer", "f_explicit"):
        assert expected_zero(fam, p, rep)


def test_expected_zero_braid_families():
    drep = DiagramRep(3, 2)
    mrep2 = MatrixRep(3, 2)
    mrep3 = MatrixRep(3, 3)
    # solved root, c = 0: holds everywhere
    assert expected_zero("vTL", solved(2), drep)
    # c != 0 fails in the diagram algebra but survives the flat d=2 model
    p = params_at(1, -1, 5, 2)
    assert not expected_zero("vTL", p, drep)
    assert expected_zero("vTL", p, mrep2)
    # a+b nonzero fails even at d = 2
    q = params_at(-1, -1, 0, 2)
    assert not expected_zero("vTL", q, mrep2)
    # d = 3 behaves like the diagram algebra
    p3 = params_at(1, solve_ab(3)[0], 1, 3)
    assert not expected_zero("vTL", p3, mrep3)
    assert expected_zero("vTL", params_at(1, solve_ab(3)[1], 0, 3), mrep3)


def test_expected_zero_flat_surprise_point():
    """(a, b, c) = (1, 1, -1) satisfies the d = 2 conditions despite a+b != 0."""
    p = params_at(1, 1, -1, 2)
    assert expected_zero("vTL", p, MatrixRep(3, 2))
    assert not expected_zero("vTL", p, DiagramRep(3, 2))
    report = run_verify(VerifyRequest("vtl", "matrix", 3, p, dim=2))
    assert report["ok"]
    assert all(c["status"] == "pass" for c in by_family(report, "vTL"))


def test_expected_zero_halves_and_eliminated_forms():
    drep = DiagramRep(3, 2)
    mrep2 = MatrixRep(3, 2)
    p = params_at(1, -1, 3, 2)
    for fam in ("F1", "FF1", "F2", "FF2"):
        assert not expected_zero(fam, p, drep)
        assert expected_zero(fam, p, mrep2)
    assert expected_zero("wTL1", p, drep)
    assert expected_zero("wTL2", p, mrep2)
    lam3 = Fraction(3)
    p3 = params_at(1, solve_ab(lam3)[0], 1, lam3)
    assert not expected_zero("wTL1", p3, DiagramRep(3, lam3))


def test_expected_zero_complement_moves():
    p = solved(2)
    assert expected_zero("fstar", p, MatrixRep(3, 2))
    assert not expected_zero("fstar", p, MatrixRep(3, 3))
    assert not expected_zero("fstar", p, DiagramRep(3, 2))
    with pytest.raises(ValueError):
        expected_zero("not_a_family", p, DiagramRep(3, 2))


def test_expected_zero_is_keyed_on_variant():
    """Distant rho's commute at every parameter point, even where the braid
    relation of the same family fails."""
    p = params_at(1, 2, 3, Fraction(5, 2))
    for rep in (DiagramRep(4, Fraction(5, 2)), MatrixRep(4, 3)):
        assert not expected_zero("BGR", p, rep)
        assert not expected_zero("BGR", p, rep, "braid")
        assert expected_zero("BGR", p, rep, "commute j=3")


def grid_points(lam):
    """Generic rationals, both braid roots, a + b = 0 and c = 0 at one lambda."""
    b_plus, b_minus = solve_ab(lam)
    return [
        params_at(1, 2, 3, lam),
        params_at(1, b_plus, 1, lam),
        params_at(1, b_minus, 1, lam),
        params_at(1, -1, 1, lam),
        params_at(1, 2, 0, lam),
    ]


def test_verify_expectations_hold_over_a_parameter_grid():
    """Every verdict matches its prediction beyond n = 3, where distant
    commute instances first appear."""
    commute_checked = 0
    for lam in (Fraction(5, 2), Fraction(3), Fraction(2)):
        for p in grid_points(lam):
            for n in (3, 4, 5, 6):
                report = run_verify(VerifyRequest("vtl", "diagram", n, p, probe_samples=2))
                assert report["ok"], (lam, params_obj(p), n)
                for c in by_family(report, "BGR"):
                    if c["variant"].startswith("commute"):
                        assert c["status"] == "pass"
                        commute_checked += 1
    for p in grid_points(Fraction(2)):
        report = run_verify(VerifyRequest("utl", "matrix", 4, p, dim=2, probe_samples=2))
        assert report["ok"], params_obj(p)
    # 0 + 1 + 3 + 6 distant pairs at n = 3..6, at 15 points
    assert commute_checked == 15 * 10


def test_run_verify_all_pass_at_solved_parameters():
    for lam in (Fraction(2), Fraction(5, 2), Fraction(3)):
        report = run_verify(
            VerifyRequest("vtl", "diagram", 3, solved(lam))
        )
        assert report["ok"]
        assert report["summary"]["fail"] == 0
        assert report["summary"]["negative_controls"] == 0


def test_run_verify_negative_controls_are_not_failures():
    p = params_at(1, -1, 1, 2)
    report = run_verify(VerifyRequest("utl", "diagram", 3, p))
    assert report["ok"]
    assert report["summary"]["negative_controls"] == 8
    assert {c["family"] for c in report["checks"] if c["status"] == "negative_control"} == {
        "BGR",
        "vTL",
        "F1",
        "FF1",
        "F2",
        "FF2",
        "fstar",
    }


def test_run_verify_flat_model_closes_every_gap():
    p = params_at(1, -1, 1, 2)
    report = run_verify(VerifyRequest("utl", "matrix", 3, p, dim=2))
    assert report["ok"]
    assert report["summary"]["negative_controls"] == 0
    assert report["summary"]["fail"] == 0


def test_run_verify_brauer_preset():
    report = run_verify(VerifyRequest("brauer", "diagram", 4, solved(2)))
    assert report["ok"]
    fams = {c["family"] for c in report["checks"]}
    assert "brauer" in fams and "brvtl" in fams


def test_run_verify_skips_families_needing_more_strands():
    report = run_verify(VerifyRequest("vtl", "diagram", 2, solved(2)))
    assert report["ok"]
    skipped = {c["family"] for c in report["checks"] if c["status"] == "skipped"}
    assert skipped == {"BGR", "vTL"}
    assert report["summary"]["skipped"] == 2


def test_run_verify_probe_and_envelope_shape():
    report = run_verify(VerifyRequest("vtl", "matrix", 3, solved(2), dim=2, seed=99))
    assert report["report_version"] == 1
    assert report["rep"] == "matrix"
    assert report["dim"] == 2
    assert report["seed"] == 99
    assert report["probes"][0]["name"] == "stacking_homomorphism"
    assert report["probes"][0]["status"] == "pass"
    assert report["flags"]["algebra"] == "vtl"
    assert report["flags"]["dim"] == 2
    d = run_verify(VerifyRequest("vtl", "diagram", 3, solved(2)))
    assert {p["name"] for p in d["probes"]} == {
        "associativity",
        "trace_cyclicity",
        "f_move_independence",
    }


def test_independence_probe_sees_the_flat_model():
    """The four grouped residual ingredients are independent everywhere
    except the d = 2 matrix model, where they drop to rank 3."""
    by_rep = {}
    for kind, dim in (("diagram", None), ("matrix", 2), ("matrix", 3)):
        report = run_verify(VerifyRequest("vtl", kind, 3, solved(dim or 2), dim=dim))
        probe = next(
            p for p in report["probes"] if p["name"] == "f_move_independence"
        )
        by_rep[(kind, dim)] = (probe["rank"], probe["independent"])
    assert by_rep[("diagram", None)] == (4, True)
    assert by_rep[("matrix", 2)] == (3, False)
    assert by_rep[("matrix", 3)] == (4, True)


def test_run_verify_is_deterministic():
    p = solved(Fraction(5, 2))
    a = run_verify(VerifyRequest("wtl", "diagram", 3, p, seed=5))
    b = run_verify(VerifyRequest("wtl", "diagram", 3, p, seed=5))
    assert a == b


def test_run_verify_unknown_algebra():
    with pytest.raises(ValueError):
        run_verify(VerifyRequest("sl2", "diagram", 3, solved(2)))


def test_algebra_presets_nest():
    assert set(ALGEBRA_FAMILIES["vtl"]) < set(ALGEBRA_FAMILIES["wtl"])
    assert set(ALGEBRA_FAMILIES["wtl"]) < set(ALGEBRA_FAMILIES["utl"])
