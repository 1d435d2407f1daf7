"""Relation verification engine with exact expected-outcome predicates.

For each algebra preset this runs every relation instance of its families in
the chosen representation and compares the observed residual against what the
parameters *should* give.  A relation that is expected to fail and does fail
is a negative control, not an error: it confirms the engine can see the
failure.  Only a mismatch between expectation and observation is a failure.

The expectations are closed-form conditions on (a, b, c, lambda) obtained by
rewriting each identity into the diagram algebra's matching basis, where
distinct matchings are linearly independent.  The d = 2 tensor model has one
extra linear relation among the eight matchings involved (the complement of
the cup-cap is an involution there), which relaxes some conditions; that case
is handled explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import DenseMatrix, rank
from .relations import (
    FAMILIES,
    CheckReport,
    check_relation,
    f_word_expr,
    params_obj,
    placements,
)
from .reps import Rep, evaluate_expr, make_rep
from .rho import RhoParams
from .scalars import as_scalar

DEFAULT_SEED = 20260214

ALGEBRA_FAMILIES: dict[str, tuple[str, ...]] = {
    "vtl": ("TLR", "VCR", "VEV", "VBR", "BGR", "vTL"),
    "wtl": ("TLR", "VCR", "VEV", "VBR", "BGR", "vTL", "F1", "FF1", "wTL1"),
    "utl": (
        "TLR",
        "VCR",
        "VEV",
        "VBR",
        "BGR",
        "vTL",
        "F1",
        "FF1",
        "wTL1",
        "F2",
        "FF2",
        "wTL2",
        "fstar",
    ),
    "brauer": ("TLR", "VCR", "VEV", "brauer", "f_explicit", "brvtl"),
}


def expected_zero(
    family: str, params: RhoParams, rep: Rep, variant: str | None = None
) -> bool:
    """Exact prediction: does this instance's residual vanish here?

    The prediction is keyed on (family, variant); `variant=None` asks about
    the family's defining relation.  Distant rho's commute
    (BGR `commute j=...`) for every parameter value, because the e's and v's
    at sites two or more apart do.
    """
    if family in ("TLR", "VCR", "VEV", "VBR", "brauer", "f_explicit"):
        return True
    if family == "BGR" and variant is not None and variant.startswith("commute"):
        return True
    a, b, c, lam = params.a, params.b, params.c, params.lam
    alpha = b * (a * a + a * b * lam + b * b)
    two = as_scalar(2)
    flat = rep.d == 2
    if family in ("vTL", "BGR", "brvtl"):
        beta = alpha + b * c * (two * a + b)
        if flat:
            return (a * a * c + beta).is_zero and (c * (b * b - a * a)).is_zero
        return (a * a * c).is_zero and (b * b * c).is_zero and beta.is_zero
    if family in ("F1", "FF1", "F2", "FF2"):
        if flat:
            return (a + b).is_zero
        return a.is_zero and b.is_zero
    if family in ("wTL1", "wTL2"):
        gamma = alpha + b * c * (a + b)
        return gamma.is_zero and (b * c * (a + b)).is_zero
    if family == "fstar":
        return flat
    raise ValueError(f"no expectation rule for family {family!r}")


@dataclass(frozen=True)
class VerifyRequest:
    algebra: str
    rep_kind: str
    n: int
    params: RhoParams
    seed: int = DEFAULT_SEED
    probe_samples: int | None = None


def _rep_on(
    rep: Rep, k: int, local_reps: dict[int, tuple[Rep, dict]]
) -> tuple[Rep, dict]:
    """`rep` on k strands, with the same lambda, and its word table.

    Both are built once per run: the table (see `reps.evaluate_expr`) holds
    products at the run's parameters, so it must not outlive the run.
    """
    out = local_reps.get(k)
    if out is None:
        local = rep if k == rep.n else make_rep(rep.kind, k, rep.lam)
        out = local_reps[k] = (local, {})
    return out


def _run_checks(
    request: VerifyRequest, rep: Rep, local_reps: dict[int, tuple[Rep, dict]]
) -> list[dict]:
    """Check every instance of the preset's families.

    In the diagram rep each placement is checked through its family's shape
    on the shape's own k <= 4 strands, and each shape once per run
    (`relations.placements`); the local report is the full-size one.  The
    shapes on k strands share one word table, so each word of their lhs,
    rhs and groups is multiplied once per run.  No full-size instance is
    built unless a check fails: a fail is a bug report, so its witness
    comes from the instance lifted to full size.

    The matrix rep checks each lifted instance at full size: there a local
    check also needs its entry count lifted by d^(n-k).  It also keeps the
    benchmark's verify_matrix runs whole: the speed probe samples once per
    50 ms of CPU, re-armed every pass.  A full-size pass is about 61 ms at
    the probe's reference speed (about 99 ms of thread CPU on a loaded
    host, with 1-2 samples); a pass of about 50 ms, one item's worth, got
    0-1 samples, and 2 of 3 such runs aborted.  Passes only 4% shorter
    already aborted 1 run in 5.
    """
    params = request.params
    local = rep.kind == "diagram"
    checks = []
    for family in ALGEBRA_FAMILIES[request.algebra]:
        min_n = FAMILIES[family].min_n
        if request.n < min_n:
            checks.append(
                {
                    "family": family,
                    "site": None,
                    "variant": None,
                    "expected": None,
                    "observed": None,
                    "status": "skipped",
                    "residual_norm": None,
                    "groups": None,
                    "witness": None,
                }
            )
            continue
        # One prediction per variant: sites differ only in where they act.
        verdicts: dict[str, bool] = {}
        shape_reports: dict[int, CheckReport] = {}  # by id of the shape
        for place in placements(family, request.n, params):
            if place.variant not in verdicts:
                verdicts[place.variant] = expected_zero(
                    family, params, rep, place.variant
                )
            want_zero = verdicts[place.variant]
            if local:
                report = shape_reports.get(id(place.shape))
                if report is None:
                    shape_rep, table = _rep_on(rep, place.shape.n, local_reps)
                    report = check_relation(place.shape, shape_rep, params, table)
                    shape_reports[id(place.shape)] = report
            else:
                report = check_relation(place.lift(request.n), rep, params)
            observed_zero = report.residual_zero
            if want_zero and observed_zero:
                status = "pass"
            elif not want_zero and not observed_zero:
                status = "negative_control"
            else:
                status = "fail"
            witness = None
            if status == "fail":
                witness = check_relation(place.lift(request.n), rep, params).witness
            entry = {
                "family": family,
                "site": place.site,
                "variant": place.variant,
                "expected": "zero" if want_zero else "nonzero",
                "observed": "zero" if observed_zero else "nonzero",
                "status": status,
                "residual_norm": report.residual_norm,
                "groups": report.groups,
                "witness": witness,
            }
            checks.append(entry)
    return checks


def _independence_probe(
    rep: Rep, params: RhoParams, local_reps: dict[int, tuple[Rep, dict]]
) -> dict | None:
    """Rank of {v1 - v2, [F]0, [F]1, [F]2} at the first site.

    The grouped residual forms treat these four elements as linearly
    independent.  That is recorded here per run, not asserted: it holds
    in the diagram algebra but not in every matrix model.  The four act on
    strands 1..3, and adding strands is injective, so the rank is taken
    on three strands, through the three-strand word table of the checks.
    """
    if rep.n < 3:
        return None
    rep, table = _rep_on(rep, 3, local_reps)
    elems = [rep.v(1) - rep.v(2)]
    elems += [evaluate_expr(f_word_expr(j, 1), rep, params, table) for j in range(3)]
    coords = [dict(rep.coords(elem)) for elem in elems]
    # One column per key any element uses; rank ignores the column order.
    keys = list(dict.fromkeys(k for c in coords for k in c))
    r = rank(DenseMatrix([[c.get(k, 0) for k in keys] for c in coords]))
    return {
        "name": "f_move_independence",
        "rank": r,
        "independent": r == len(elems),
        "status": "info",
    }


def run_verify(request: VerifyRequest) -> dict:
    """Run all checks and probes; return the JSON-ready report envelope."""
    if request.algebra not in ALGEBRA_FAMILIES:
        known = ", ".join(sorted(ALGEBRA_FAMILIES))
        raise ValueError(f"unknown algebra {request.algebra!r} (known: {known})")
    rep = make_rep(request.rep_kind, request.n, request.params.lam)
    samples = request.probe_samples
    if samples is None:
        samples = rep.probe_samples
    if samples < 0:
        raise ValueError(f"probe sample count must be at least 0; got {samples}")
    local_reps: dict[int, tuple[Rep, dict]] = {}
    checks = _run_checks(request, rep, local_reps)
    probes = rep.probes(request.seed, samples)
    independence = _independence_probe(rep, request.params, local_reps)
    if independence is not None:
        probes.append(independence)
    n_pass = sum(1 for c in checks if c["status"] == "pass")
    n_fail = sum(1 for c in checks if c["status"] == "fail")
    n_neg = sum(1 for c in checks if c["status"] == "negative_control")
    n_skip = sum(1 for c in checks if c["status"] == "skipped")
    probe_fail = sum(1 for p in probes if p["status"] == "fail")
    report = {
        "report_version": 1,
        "command": "verify",
        "flags": {
            "algebra": request.algebra,
            "rep": rep.kind,
            "n": request.n,
            "dim": rep.d,
            "seed": request.seed,
            "samples": samples,
        },
        "algebra": request.algebra,
        "rep": rep.kind,
        "n": request.n,
        "dim": rep.d,
        "lambda": request.params.lam.to_obj(),
        "params": params_obj(request.params),
        "seed": request.seed,
        "checks": checks,
        "probes": probes,
        "summary": {
            "pass": n_pass,
            "fail": n_fail + probe_fail,
            "negative_controls": n_neg,
            "skipped": n_skip,
            "probes": len(probes),
        },
        "ok": n_fail == 0 and probe_fail == 0,
    }
    return report
