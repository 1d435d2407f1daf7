"""Closed registry of defining relation families and the relation checker.

Each family is stated once, as formal expression pairs with named coefficient
groups where the identity is a linear combination (the bracketed [F]_j pieces
and friends), so a failed check can report which group was nonzero.  The
stored coefficients are part of the registry, not re-derived; an independent
expansion cross-check lives in `expand`.

Families
--------
TLR       e_i^2 = lam e_i, e_i e_{i+1} e_i = e_i, distant e's commute
VCR       v_i^2 = 1, v braid relation, distant v's commute
VEV       v_i e_{i+1} v_i = v_{i+1} e_i v_{i+1}; e_i and v_j commute, j != i+-1
VBR       mixed rho/v: sandwich and commutation (parameter independent)
BGR       braid relation for rho_i = a + b e_i + c v_i
F1, F2    the two forbidden moves, under rho
vTL       linear identity equivalent to BGR given TLR, VCR, VEV
FF1, FF2  c-free halves extracted from the forbidden moves
wTL1 wTL2 vTL with the v-difference eliminated via FF1 (resp. FF2)
brauer    e_i v_i = v_i e_i = e_i plus the one-sided slide axioms
brvtl     vTL rewritten with the slide axioms applied (diagram algebra form)
f_explicit   each [F]_j equals its slid-down two-letter form
fstar     forbidden moves for the complement 1 - e_i (matrix name: fu22)
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateParamsError
from .expressions import Expr, e_star, gen_e, gen_rho, gen_v
from .reps import Rep, evaluate_expr
from .rho import RhoParams
from .scalars import QuadScalar, as_scalar
from .words import GeneratorSymbol


@dataclass(frozen=True)
class Group:
    name: str
    coeff: QuadScalar
    expr: Expr

    def weighted(self) -> Expr:
        return self.expr.scale(self.coeff)


@dataclass(frozen=True)
class RelationInstance:
    family: str
    n: int
    site: int
    variant: str
    lhs: Expr
    rhs: Expr
    groups: tuple[Group, ...] = ()


def f_word_expr(j: int, i: int) -> Expr:
    """The bracketed [F]_j combination at sites (i, i+1), as stated."""
    e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
    if j == 0:
        return e1 * v2 * e1 - e2 * v1 * e2
    if j == 1:
        return v1 * e2 * e1 - e2 * e1 * v2
    if j == 2:
        return e1 * e2 * v1 - v2 * e1 * e2
    raise ValueError("j must be 0, 1 or 2")


def f_slide_expr(j: int, i: int) -> Expr:
    """[F]_j after the one-sided slide axioms: its two-letter diagram form."""
    e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
    if j == 0:
        return e1 - e2
    if j == 1:
        return v2 * e1 - e2 * v1
    if j == 2:
        return e1 * v2 - v1 * e2
    raise ValueError("j must be 0, 1 or 2")


def _need_params(family: str, params: RhoParams | None) -> RhoParams:
    if params is None:
        raise ValueError(f"family {family} needs parameters")
    return params


def _from_groups(family, n, site, variant, groups) -> RelationInstance:
    lhs = Expr.zero()
    for g in groups:
        lhs = lhs + g.weighted()
    return RelationInstance(family, n, site, variant, lhs, Expr.zero(), tuple(groups))


def _tlr(n: int, params: RhoParams | None) -> list[RelationInstance]:
    lam = _need_params("TLR", params).lam
    out = []
    for i in range(1, n):
        e = gen_e(i)
        out.append(RelationInstance("TLR", n, i, "square", e * e, e.scale(lam)))
    for i in range(1, n - 1):
        e1, e2 = gen_e(i), gen_e(i + 1)
        out.append(RelationInstance("TLR", n, i, "reduce+", e1 * e2 * e1, e1))
        out.append(RelationInstance("TLR", n, i, "reduce-", e2 * e1 * e2, e2))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            ei, ej = gen_e(i), gen_e(j)
            out.append(
                RelationInstance("TLR", n, i, f"commute j={j}", ei * ej, ej * ei)
            )
    return out


def _vcr(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n):
        v = gen_v(i)
        out.append(RelationInstance("VCR", n, i, "square", v * v, Expr.one()))
    for i in range(1, n - 1):
        v1, v2 = gen_v(i), gen_v(i + 1)
        out.append(RelationInstance("VCR", n, i, "braid", v1 * v2 * v1, v2 * v1 * v2))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            vi, vj = gen_v(i), gen_v(j)
            out.append(
                RelationInstance("VCR", n, i, f"commute j={j}", vi * vj, vj * vi)
            )
    return out


def _vev(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n - 1):
        e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
        out.append(
            RelationInstance("VEV", n, i, "conjugate", v1 * e2 * v1, v2 * e1 * v2)
        )
    for i in range(1, n):
        e, v = gen_e(i), gen_v(i)
        out.append(RelationInstance("VEV", n, i, "commute j=i", e * v, v * e))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) < 2:
                continue
            e, v = gen_e(i), gen_v(j)
            out.append(
                RelationInstance("VEV", n, i, f"commute j={j}", e * v, v * e)
            )
    return out


def _vbr(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n - 1):
        r1, r2 = gen_rho(i), gen_rho(i + 1)
        v1, v2 = gen_v(i), gen_v(i + 1)
        out.append(
            RelationInstance("VBR", n, i, "sandwich", v1 * r2 * v1, v2 * r1 * v2)
        )
    for i in range(1, n):
        r, v = gen_rho(i), gen_v(i)
        out.append(RelationInstance("VBR", n, i, "commute j=i", r * v, v * r))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) < 2:
                continue
            r, v = gen_rho(i), gen_v(j)
            out.append(
                RelationInstance("VBR", n, i, f"commute j={j}", r * v, v * r)
            )
    return out


def _bgr(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n - 1):
        r1, r2 = gen_rho(i), gen_rho(i + 1)
        out.append(RelationInstance("BGR", n, i, "braid", r1 * r2 * r1, r2 * r1 * r2))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            ri, rj = gen_rho(i), gen_rho(j)
            out.append(
                RelationInstance("BGR", n, i, f"commute j={j}", ri * rj, rj * ri)
            )
    return out


def _forbidden(which: int):
    def build(n: int, params) -> list[RelationInstance]:
        out = []
        for i in range(1, n - 1):
            r1, r2 = gen_rho(i), gen_rho(i + 1)
            v1, v2 = gen_v(i), gen_v(i + 1)
            if which == 1:
                lhs, rhs = v1 * r2 * r1, r2 * r1 * v2
            else:
                lhs, rhs = r1 * r2 * v1, v2 * r1 * r2
            out.append(RelationInstance(f"F{which}", n, i, "move", lhs, rhs))
        return out

    return build


def _vtl(n: int, params: RhoParams | None) -> list[RelationInstance]:
    p = _need_params("vTL", params)
    a, b, c, lam = p.a, p.b, p.c, p.lam
    coeff_e = a * a * b + a * b * b * lam + b * b * b
    out = []
    for i in range(1, n - 1):
        e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
        groups = [
            Group("e_diff", coeff_e, e1 - e2),
            Group("v_diff", a * a * c, v1 - v2),
            Group("ev_mixed", a * b * c, e1 * v1 + v1 * e1 - e2 * v2 - v2 * e2),
            Group("f0", b * b * c, f_word_expr(0, i)),
            Group("f1", b * b * c, f_word_expr(1, i)),
            Group("f2", b * b * c, f_word_expr(2, i)),
        ]
        out.append(_from_groups("vTL", n, i, "linear", groups))
    return out


def _ff1(n: int, params: RhoParams | None) -> list[RelationInstance]:
    p = _need_params("FF1", params)
    a, b = p.a, p.b
    out = []
    for i in range(1, n - 1):
        e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
        groups = [
            Group("v_diff", a * a, v1 - v2),
            Group("ev_mixed", a * b, v1 * e1 + v1 * e2 - e1 * v2 - e2 * v2),
            Group("f1", b * b, f_word_expr(1, i)),
        ]
        out.append(_from_groups("FF1", n, i, "linear", groups))
    return out


def _ff2(n: int, params: RhoParams | None) -> list[RelationInstance]:
    p = _need_params("FF2", params)
    a, b = p.a, p.b
    out = []
    for i in range(1, n - 1):
        e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
        groups = [
            Group("v_diff", a * a, v1 - v2),
            Group("ev_mixed", a * b, e1 * v1 + e2 * v1 - v2 * e1 - v2 * e2),
            Group("f2", b * b, f_word_expr(2, i)),
        ]
        out.append(_from_groups("FF2", n, i, "linear", groups))
    return out


def _wtl(which: int):
    def build(n: int, params: RhoParams | None) -> list[RelationInstance]:
        p = _need_params(f"wTL{which}", params)
        a, b, c, lam = p.a, p.b, p.c, p.lam
        coeff_e = a * a * b + a * b * b * lam + b * b * b
        abc = a * b * c
        bbc = b * b * c
        out = []
        for i in range(1, n - 1):
            e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
            if which == 1:
                mixed = e1 * v1 - v2 * e2 - v1 * e2 + e1 * v2
                fa, fb = 0, 2
            else:
                mixed = v1 * e1 - e2 * v2 - e2 * v1 + v2 * e1
                fa, fb = 0, 1
            groups = [
                Group("e_diff", coeff_e, e1 - e2),
                Group("ev_mixed", abc, mixed),
                Group(f"f{fa}", bbc, f_word_expr(fa, i)),
                Group(f"f{fb}", bbc, f_word_expr(fb, i)),
            ]
            out.append(_from_groups(f"wTL{which}", n, i, "linear", groups))
        return out

    return build


def _brauer(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n):
        e, v = gen_e(i), gen_v(i)
        out.append(RelationInstance("brauer", n, i, "ev", e * v, e))
        out.append(RelationInstance("brauer", n, i, "ve", v * e, e))
    for i in range(1, n - 1):
        e1, e2, v1, v2 = gen_e(i), gen_e(i + 1), gen_v(i), gen_v(i + 1)
        out.append(RelationInstance("brauer", n, i, "vee+", v2 * e1 * e2, v1 * e2))
        out.append(RelationInstance("brauer", n, i, "vee-", v1 * e2 * e1, v2 * e1))
        out.append(RelationInstance("brauer", n, i, "eev+", e2 * e1 * v2, e2 * v1))
        out.append(RelationInstance("brauer", n, i, "eev-", e1 * e2 * v1, e1 * v2))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) < 2:
                continue
            e, v = gen_e(i), gen_v(j)
            out.append(
                RelationInstance("brauer", n, i, f"commute j={j}", e * v, v * e)
            )
    return out


def _brvtl(n: int, params: RhoParams | None) -> list[RelationInstance]:
    p = _need_params("brvtl", params)
    a, b, c, lam = p.a, p.b, p.c, p.lam
    two = as_scalar(2)
    coeff_f0 = b * (a * a + a * b * lam + b * b + c * (two * a + b))
    out = []
    for i in range(1, n - 1):
        v1, v2 = gen_v(i), gen_v(i + 1)
        groups = [
            Group("v_diff", a * a * c, v1 - v2),
            Group("f0_slide", coeff_f0, f_slide_expr(0, i)),
            Group("f1_slide", b * b * c, f_slide_expr(1, i)),
            Group("f2_slide", b * b * c, f_slide_expr(2, i)),
        ]
        out.append(_from_groups("brvtl", n, i, "linear", groups))
    return out


def _f_explicit(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n - 1):
        for j in range(3):
            out.append(
                RelationInstance(
                    "f_explicit", n, i, f"F{j}", f_word_expr(j, i), f_slide_expr(j, i)
                )
            )
    return out


def _fstar(n: int, params) -> list[RelationInstance]:
    out = []
    for i in range(1, n - 1):
        s1, s2 = e_star(i), e_star(i + 1)
        v1, v2 = gen_v(i), gen_v(i + 1)
        out.append(
            RelationInstance("fstar", n, i, "F1", v1 * s2 * s1, s2 * s1 * v2)
        )
        out.append(
            RelationInstance("fstar", n, i, "F2", s1 * s2 * v1, v2 * s1 * s2)
        )
    return out


@dataclass(frozen=True)
class FamilySpec:
    name: str
    min_n: int
    needs_params: bool
    guarded: bool  # reject the b=0, a*c != 0 regime before evaluating
    builder: object


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in [
        FamilySpec("TLR", 2, True, False, _tlr),
        FamilySpec("VCR", 2, False, False, _vcr),
        FamilySpec("VEV", 2, False, False, _vev),
        FamilySpec("VBR", 2, False, False, _vbr),
        FamilySpec("BGR", 3, False, False, _bgr),
        FamilySpec("F1", 3, False, False, _forbidden(1)),
        FamilySpec("F2", 3, False, False, _forbidden(2)),
        FamilySpec("vTL", 3, True, True, _vtl),
        FamilySpec("FF1", 3, True, True, _ff1),
        FamilySpec("wTL1", 3, True, True, _wtl(1)),
        FamilySpec("FF2", 3, True, True, _ff2),
        FamilySpec("wTL2", 3, True, True, _wtl(2)),
        FamilySpec("brauer", 2, False, False, _brauer),
        FamilySpec("brvtl", 3, True, True, _brvtl),
        FamilySpec("f_explicit", 3, False, False, _f_explicit),
        FamilySpec("fstar", 3, False, False, _fstar),
    ]
}


def relation_instances(
    family: str, n: int, params: RhoParams | None = None
) -> list[RelationInstance]:
    spec = FAMILIES.get(family)
    if spec is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown relation family {family!r} (known: {known})")
    if n < spec.min_n:
        raise ValueError(f"family {family} needs n >= {spec.min_n}, got {n}")
    if spec.needs_params:
        _need_params(family, params)
    return spec.builder(n, params)


def _relabelled_key(expr: Expr, pos: dict[int, int]) -> tuple:
    return tuple(
        (tuple((s.kind, pos[s.index]) for s in word), coeff)
        for word, coeff in expr.terms.items()
    )


def localize(instance: RelationInstance) -> tuple[tuple[int, ...], tuple]:
    """Support strands of an instance, and its memo key on those strands.

    A generator at site i acts on strands i and i+1 only, so lhs, rhs and
    every group live on the support: the sorted union of {i, i+1} over the
    sites they use.  Adding identity strands elsewhere is an injective
    algebra map (X -> X (x) I in the tensor model), so a residual vanishes
    at n exactly when it vanishes on the support, with the same terms and
    group verdicts.  The key is the family, the support size k and the
    lhs/rhs/group terms with site i relabelled to pos[i] in 1..k (the map
    is monotone); instances with equal keys have equal local residuals.
    """
    exprs = [instance.lhs, instance.rhs] + [g.expr for g in instance.groups]
    sites = {s.index for expr in exprs for word in expr.terms for s in word}
    strands = tuple(sorted(sites | {i + 1 for i in sites}))
    pos = {strand: p for p, strand in enumerate(strands, start=1)}
    key = (
        instance.family,
        len(strands),
        _relabelled_key(instance.lhs, pos),
        _relabelled_key(instance.rhs, pos),
        tuple(
            (g.name, g.coeff, _relabelled_key(g.expr, pos))
            for g in instance.groups
        ),
    )
    return strands, key


def local_instance(
    instance: RelationInstance, strands: tuple[int, ...]
) -> RelationInstance:
    """The instance relabelled onto strands 1..k of its support `strands`.

    The variant keeps its name; only the sites move.
    """
    pos = {strand: p for p, strand in enumerate(strands, start=1)}

    def move(expr: Expr) -> Expr:
        return Expr(
            {
                tuple(GeneratorSymbol(s.kind, pos[s.index]) for s in word): coeff
                for word, coeff in expr.terms.items()
            }
        )

    return RelationInstance(
        instance.family,
        len(strands),
        pos[instance.site],
        instance.variant,
        move(instance.lhs),
        move(instance.rhs),
        tuple(Group(g.name, g.coeff, move(g.expr)) for g in instance.groups),
    )


@dataclass(frozen=True)
class CheckReport:
    family: str
    n: int
    site: int
    variant: str
    params: RhoParams
    residual_zero: bool
    residual_norm: str
    witness: dict | None = None
    groups: dict[str, bool] | None = None

    def to_obj(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "site": self.site,
            "variant": self.variant,
            "params": params_obj(self.params),
            "residual_zero": self.residual_zero,
            "residual_norm": self.residual_norm,
            "witness": self.witness,
            "groups": self.groups,
        }


def params_obj(params: RhoParams) -> dict:
    values = (params.a, params.b, params.c, params.lam)
    D = next(([s.Dn, s.Dd] for s in values if not s.is_rational), [0, 1])
    return {
        "a": params.a.to_obj(),
        "b": params.b.to_obj(),
        "c": params.c.to_obj(),
        "lambda": params.lam.to_obj(),
        "D": D,
    }


def _residual_norm(rep: Rep, residual) -> str:
    if rep.is_zero(residual):
        return "0"
    if rep.kind == "diagram":
        mags = [abs(c.approx()) for _, c in residual.terms()]
        return f"{len(mags)} terms, max |coeff| ~= {max(mags):.6g}"
    mags = [abs(e.approx()) for _, _, e in residual.nonzeros()]
    return f"{len(mags)} entries, max |entry| ~= {max(mags):.6g}"


def check_relation(
    instance: RelationInstance, rep: Rep, params: RhoParams
) -> CheckReport:
    """Evaluate lhs - rhs in the representation and report exactly.

    The degenerate regime b = 0, a*c != 0 is rejected for the linear families
    with a dedicated error: there the identity forces v_i = v_{i+1} and a
    bare "failed" would be misleading.
    """
    spec = FAMILIES[instance.family]
    if spec.guarded and params.is_degenerate:
        raise DegenerateParamsError(
            f"family {instance.family}: b = 0 with a*c != 0 forces"
            " v_i = v_{i+1}; refusing to evaluate"
        )
    if params.lam != rep.lam:
        raise ValueError(
            f"params carry lambda={params.lam} but the representation"
            f" has lambda={rep.lam}"
        )
    lhs = evaluate_expr(instance.lhs, rep, params)
    rhs = evaluate_expr(instance.rhs, rep, params)
    residual = rep.sub(lhs, rhs)
    zero = rep.is_zero(residual)
    witness = None if zero else rep.witness(residual)
    groups = None
    if not zero and instance.groups:
        groups = {
            g.name: rep.is_zero(evaluate_expr(g.weighted(), rep, params))
            for g in instance.groups
        }
    return CheckReport(
        family=instance.family,
        n=instance.n,
        site=instance.site,
        variant=instance.variant,
        params=params,
        residual_zero=zero,
        residual_norm=_residual_norm(rep, residual),
        witness=witness,
        groups=groups,
    )
