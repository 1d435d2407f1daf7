"""Verification engine: expectations, statuses, and the report envelope."""

from fractions import Fraction

import pytest

from vtl import relations, verify
from vtl.linalg import DenseMatrix, rank
from vtl.relations import (
    FAMILIES,
    check_relation,
    f_word_expr,
    params_obj,
    placements,
    relation_instances,
)
from vtl.reps import DiagramRep, MatrixRep, evaluate_expr, make_rep
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
    report = run_verify(VerifyRequest("vtl", "matrix", 3, p))
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
        report = run_verify(VerifyRequest("utl", "matrix", 4, p, probe_samples=2))
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
    report = run_verify(VerifyRequest("utl", "matrix", 3, p))
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
    report = run_verify(VerifyRequest("vtl", "matrix", 3, solved(2), seed=99))
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
        report = run_verify(VerifyRequest("vtl", kind, 3, solved(dim or 2)))
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


def test_run_verify_unknown_rep_kind():
    """A misspelt rep kind is refused, not run in the diagram rep."""
    request = VerifyRequest("vtl", "matirx", 3, RhoParams.make(1, -1, 1, 2))
    with pytest.raises(ValueError, match="unknown rep kind 'matirx'"):
        run_verify(request)


@pytest.mark.parametrize("kind", ["diagram", "matrix"])
def test_run_verify_refuses_a_negative_probe_count(kind):
    with pytest.raises(ValueError, match="at least 0; got -1"):
        run_verify(VerifyRequest("vtl", kind, 3, solved(2), probe_samples=-1))
    report = run_verify(VerifyRequest("vtl", kind, 3, solved(2), probe_samples=0))
    assert report["ok"] and report["flags"]["samples"] == 0


def test_run_verify_drives_any_rep_through_its_surface(monkeypatch):
    """A rep of a kind verify has never heard of runs with no edit to
    verify: its checks and probes are the diagram rep's."""

    class StandIn(DiagramRep):
        kind = "stand-in"

    def make(kind, n, lam):
        return StandIn(n, lam) if kind == "stand-in" else make_rep(kind, n, lam)

    monkeypatch.setattr(verify, "make_rep", make)
    p = params_at(1, -1, 1, 2)
    stand_in = run_verify(VerifyRequest("utl", "stand-in", 4, p))
    diagram = run_verify(VerifyRequest("utl", "diagram", 4, p))
    assert stand_in["rep"] == stand_in["flags"]["rep"] == "stand-in"
    assert stand_in["flags"]["samples"] == DiagramRep.probe_samples
    assert stand_in["probes"] == diagram["probes"]
    # the local switch sends the stand-in to full-size checks; same verdicts
    assert stand_in["checks"] == diagram["checks"]
    assert stand_in["summary"] == diagram["summary"]


def test_algebra_presets_nest():
    assert set(ALGEBRA_FAMILIES["vtl"]) < set(ALGEBRA_FAMILIES["wtl"])
    assert set(ALGEBRA_FAMILIES["wtl"]) < set(ALGEBRA_FAMILIES["utl"])


# Sizes of the side-by-side tests: (rep kind, n, dim).  The matrix rep
# checks at full size, so there the test covers the report path and the
# full-size witness; (5, 3) would add 10 s and nothing else.
LOCAL_SIZES = (
    [("diagram", n, None) for n in (3, 4, 5)]
    + [("matrix", n, 2) for n in (3, 4, 5)]
    + [("matrix", n, 3) for n in (3, 4)]
)


def _full_size_checks(request):
    """Every instance's report from a direct evaluation at full n."""
    rep = make_rep(request.rep_kind, request.n, request.params.lam)
    out = []
    for family in ALGEBRA_FAMILIES[request.algebra]:
        if request.n < FAMILIES[family].min_n:
            continue
        for inst in relation_instances(family, request.n, request.params):
            out.append((inst, check_relation(inst, rep, request.params)))
    return out


@pytest.mark.parametrize("kind, n, dim", LOCAL_SIZES)
def test_local_checks_equal_full_size_evaluation(monkeypatch, kind, n, dim):
    """Each entry's observed, residual_norm and groups equal a full-n
    evaluation; with every prediction flipped each check fails and its
    witness equals the full-n witness too."""
    lam = dim if dim is not None else Fraction(5, 2)
    points = [params_at(1, -1, 1, lam), params_at(1, 2, 3, lam)]
    flip = verify.expected_zero
    # utl and brauer between them hold every family of every preset
    for algebra in ("utl", "brauer"):
        for p in points:
            request = VerifyRequest(algebra, kind, n, p, probe_samples=1)
            full = _full_size_checks(request)
            report = run_verify(request)
            with monkeypatch.context() as m:
                m.setattr(verify, "expected_zero", lambda *a: not flip(*a))
                flipped = run_verify(request)
            for run, forced in ((report, False), (flipped, True)):
                checks = [c for c in run["checks"] if c["status"] != "skipped"]
                assert len(checks) == len(full)
                for entry, (inst, want) in zip(checks, full):
                    where = (algebra, params_obj(p), inst.family, inst.site, inst.variant)
                    assert (entry["family"], entry["site"], entry["variant"]) == (
                        inst.family, inst.site, inst.variant
                    ), where
                    observed = "zero" if want.residual_zero else "nonzero"
                    assert entry["observed"] == observed, where
                    assert entry["residual_norm"] == want.residual_norm, where
                    assert entry["groups"] == want.groups, where
                    if forced:
                        assert entry["status"] == "fail", where
                        assert entry["witness"] == want.witness, where
                    else:
                        assert entry["witness"] is None, where


def test_each_run_keeps_its_own_local_checks(monkeypatch):
    """Two runs give identical reports and make the same number of
    check_relation calls: no local check outlives its run_verify call."""
    calls = []
    real = verify.check_relation

    def counting(instance, *args):
        calls.append(instance.family)
        return real(instance, *args)

    monkeypatch.setattr(verify, "check_relation", counting)
    request = VerifyRequest("utl", "diagram", 6, params_at(1, -1, 1, 2))
    first = run_verify(request)
    first_calls = len(calls)
    second = run_verify(request)
    assert first == second
    assert len(calls) == 2 * first_calls
    # each local shape is checked once, so far fewer calls than checks
    assert first_calls < len(first["checks"]) / 2


def test_diagram_checks_build_no_full_size_instance(monkeypatch):
    """With no fails, diagram verify checks shapes only: it never calls
    relation_instances or lifts a placement to full size."""

    def boom(*args, **kwargs):
        raise AssertionError("full-size instance built")

    monkeypatch.setattr(relations, "relation_instances", boom)
    monkeypatch.setattr(verify, "relation_instances", boom, raising=False)
    monkeypatch.setattr(relations.Placement, "lift", boom)
    for algebra in ("utl", "brauer"):
        request = VerifyRequest(algebra, "diagram", 6, params_at(1, -1, 1, 2))
        report = run_verify(request)
        assert report["ok"] and report["summary"]["fail"] == 0
        assert report["summary"]["pass"] > 0


def _full_size_rank(rep):
    """The independence probe's rank, taken in the full-size rep."""
    elems = [rep.v(1) - rep.v(2)]
    elems += [evaluate_expr(f_word_expr(j, 1), rep) for j in range(3)]
    if rep.kind == "matrix":
        positions = sorted({(r, c) for m in elems for r, c, _ in m.nonzeros()})
        rows = [[m[r, c] for r, c in positions] for m in elems]
    else:
        basis = sorted({m for e in elems for m, _ in e.terms()}, key=lambda m: m.pairs)
        rows = [[e.coeff(m) for m in basis] for e in elems]
    return rank(DenseMatrix(rows))


@pytest.mark.parametrize("kind, dim", [("diagram", None), ("matrix", 2), ("matrix", 3)])
@pytest.mark.parametrize("n", [4, 5])
def test_independence_probe_rank_equals_full_size_rank(kind, dim, n):
    request = VerifyRequest("vtl", kind, n, solved(dim or 2), probe_samples=1)
    report = run_verify(request)
    probe = next(p for p in report["probes"] if p["name"] == "f_move_independence")
    assert probe["rank"] == _full_size_rank(make_rep(kind, n, request.params.lam))
    assert probe["rank"] == (3 if dim == 2 else 4)


# The parameter points of the benchmark's verify workloads.
BENCHMARK_POINTS = {
    "sqrt5": solved(3, c=1),
    "rational": params_at(1, 2, 3, Fraction(5, 2)),
    "collapse": params_at(1, -1, 1, 2),
}


@pytest.mark.parametrize("point", sorted(BENCHMARK_POINTS))
def test_shared_word_table_gives_each_shapes_own_report(point):
    """Every shape of every family, checked as verify does, through one word
    table per strand count, reports what check_relation without a table
    reports."""
    params = BENCHMARK_POINTS[point]
    kinds = ["diagram"] + (["matrix"] if params.lam == 2 else [])
    for kind in kinds:
        tables: dict[int, tuple] = {}
        for family in FAMILIES:
            seen = set()
            for place in placements(family, 4, params):
                shape = place.shape
                if id(shape) in seen:
                    continue
                seen.add(id(shape))
                if shape.n not in tables:
                    tables[shape.n] = (make_rep(kind, shape.n, params.lam), {})
                rep, table = tables[shape.n]
                shared = check_relation(shape, rep, params, table)
                assert shared == check_relation(shape, rep, params), (family, shape)
        assert sorted(tables) == [2, 3, 4]
        assert all(table for _, table in tables.values())
