"""Closed registry of defining relation families and the relation checker.

Each family is stated once, as formal expression pairs on at most four strands
(its shapes, placed onto any n by `placements`), with named coefficient
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
from typing import NamedTuple

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


# A shape is a RelationInstance on its own k <= 4 strands, with n = k and its
# site local.  Shapes come in blocks, and each block says where its shapes are
# placed (`placements`).


@dataclass(frozen=True)
class _Block:
    shapes: tuple[RelationInstance, ...]
    # False: every shape at every site i, on strands i..i+k-1.  True: the
    # distant commutes x_i y_j = y_j x_i, |i - j| >= 2, on strands
    # (i, i+1, j, j+1) sorted; shapes[0] serves i < j and shapes[1] i > j.
    distant: bool = False


def _block(family: str, k: int, *specs) -> _Block:
    """Shapes at site 1 on k strands; a spec is (variant, lhs, rhs[, groups])."""
    return _Block(tuple(RelationInstance(family, k, 1, *spec) for spec in specs))


def _linear(*groups: Group) -> tuple:
    """The spec of a linear identity: sum of weighted groups = 0."""
    lhs = Expr.zero()
    for g in groups:
        lhs = lhs + g.weighted()
    return ("linear", lhs, Expr.zero(), groups)


def _commute(family: str, x, y) -> _Block:
    """x_i y_j = y_j x_i for |i - j| >= 2.  For x = y an i > j instance
    repeats an i < j one, so only i < j is placed."""
    shapes = [RelationInstance(family, 4, 1, "commute", x(1) * y(3), y(3) * x(1))]
    if x is not y:
        shapes.append(
            RelationInstance(family, 4, 3, "commute", x(3) * y(1), y(1) * x(3))
        )
    return _Block(tuple(shapes), distant=True)


def _tlr(p: RhoParams) -> list[_Block]:
    e1, e2 = gen_e(1), gen_e(2)
    return [
        _block("TLR", 2, ("square", e1 * e1, e1.scale(p.lam))),
        _block(
            "TLR", 3, ("reduce+", e1 * e2 * e1, e1), ("reduce-", e2 * e1 * e2, e2)
        ),
        _commute("TLR", gen_e, gen_e),
    ]


def _vcr(p) -> list[_Block]:
    v1, v2 = gen_v(1), gen_v(2)
    return [
        _block("VCR", 2, ("square", v1 * v1, Expr.one())),
        _block("VCR", 3, ("braid", v1 * v2 * v1, v2 * v1 * v2)),
        _commute("VCR", gen_v, gen_v),
    ]


def _vev(p) -> list[_Block]:
    e1, e2, v1, v2 = gen_e(1), gen_e(2), gen_v(1), gen_v(2)
    return [
        _block("VEV", 3, ("conjugate", v1 * e2 * v1, v2 * e1 * v2)),
        _block("VEV", 2, ("commute j=i", e1 * v1, v1 * e1)),
        _commute("VEV", gen_e, gen_v),
    ]


def _vbr(p) -> list[_Block]:
    r1, r2, v1, v2 = gen_rho(1), gen_rho(2), gen_v(1), gen_v(2)
    return [
        _block("VBR", 3, ("sandwich", v1 * r2 * v1, v2 * r1 * v2)),
        _block("VBR", 2, ("commute j=i", r1 * v1, v1 * r1)),
        _commute("VBR", gen_rho, gen_v),
    ]


def _bgr(p) -> list[_Block]:
    r1, r2 = gen_rho(1), gen_rho(2)
    return [
        _block("BGR", 3, ("braid", r1 * r2 * r1, r2 * r1 * r2)),
        _commute("BGR", gen_rho, gen_rho),
    ]


def _forbidden(which: int):
    def build(p) -> list[_Block]:
        r1, r2, v1, v2 = gen_rho(1), gen_rho(2), gen_v(1), gen_v(2)
        if which == 1:
            lhs, rhs = v1 * r2 * r1, r2 * r1 * v2
        else:
            lhs, rhs = r1 * r2 * v1, v2 * r1 * r2
        return [_block(f"F{which}", 3, ("move", lhs, rhs))]

    return build


def _vtl(p: RhoParams) -> list[_Block]:
    a, b, c, lam = p.a, p.b, p.c, p.lam
    e1, e2, v1, v2 = gen_e(1), gen_e(2), gen_v(1), gen_v(2)
    linear = _linear(
        Group("e_diff", a * a * b + a * b * b * lam + b * b * b, e1 - e2),
        Group("v_diff", a * a * c, v1 - v2),
        Group("ev_mixed", a * b * c, e1 * v1 + v1 * e1 - e2 * v2 - v2 * e2),
        Group("f0", b * b * c, f_word_expr(0, 1)),
        Group("f1", b * b * c, f_word_expr(1, 1)),
        Group("f2", b * b * c, f_word_expr(2, 1)),
    )
    return [_block("vTL", 3, linear)]


def _ff(which: int):
    def build(p: RhoParams) -> list[_Block]:
        a, b = p.a, p.b
        e1, e2, v1, v2 = gen_e(1), gen_e(2), gen_v(1), gen_v(2)
        if which == 1:
            mixed = v1 * e1 + v1 * e2 - e1 * v2 - e2 * v2
        else:
            mixed = e1 * v1 + e2 * v1 - v2 * e1 - v2 * e2
        linear = _linear(
            Group("v_diff", a * a, v1 - v2),
            Group("ev_mixed", a * b, mixed),
            Group(f"f{which}", b * b, f_word_expr(which, 1)),
        )
        return [_block(f"FF{which}", 3, linear)]

    return build


def _wtl(which: int):
    def build(p: RhoParams) -> list[_Block]:
        a, b, c, lam = p.a, p.b, p.c, p.lam
        e1, e2, v1, v2 = gen_e(1), gen_e(2), gen_v(1), gen_v(2)
        if which == 1:
            mixed = e1 * v1 - v2 * e2 - v1 * e2 + e1 * v2
            fa, fb = 0, 2
        else:
            mixed = v1 * e1 - e2 * v2 - e2 * v1 + v2 * e1
            fa, fb = 0, 1
        linear = _linear(
            Group("e_diff", a * a * b + a * b * b * lam + b * b * b, e1 - e2),
            Group("ev_mixed", a * b * c, mixed),
            Group(f"f{fa}", b * b * c, f_word_expr(fa, 1)),
            Group(f"f{fb}", b * b * c, f_word_expr(fb, 1)),
        )
        return [_block(f"wTL{which}", 3, linear)]

    return build


def _brauer(p) -> list[_Block]:
    e1, e2, v1, v2 = gen_e(1), gen_e(2), gen_v(1), gen_v(2)
    return [
        _block("brauer", 2, ("ev", e1 * v1, e1), ("ve", v1 * e1, e1)),
        _block(
            "brauer",
            3,
            ("vee+", v2 * e1 * e2, v1 * e2),
            ("vee-", v1 * e2 * e1, v2 * e1),
            ("eev+", e2 * e1 * v2, e2 * v1),
            ("eev-", e1 * e2 * v1, e1 * v2),
        ),
        _commute("brauer", gen_e, gen_v),
    ]


def _brvtl(p: RhoParams) -> list[_Block]:
    a, b, c, lam = p.a, p.b, p.c, p.lam
    coeff_f0 = b * (a * a + a * b * lam + b * b + c * (as_scalar(2) * a + b))
    linear = _linear(
        Group("v_diff", a * a * c, gen_v(1) - gen_v(2)),
        Group("f0_slide", coeff_f0, f_slide_expr(0, 1)),
        Group("f1_slide", b * b * c, f_slide_expr(1, 1)),
        Group("f2_slide", b * b * c, f_slide_expr(2, 1)),
    )
    return [_block("brvtl", 3, linear)]


def _f_explicit(p) -> list[_Block]:
    specs = [(f"F{j}", f_word_expr(j, 1), f_slide_expr(j, 1)) for j in range(3)]
    return [_block("f_explicit", 3, *specs)]


def _fstar(p) -> list[_Block]:
    s1, s2, v1, v2 = e_star(1), e_star(2), gen_v(1), gen_v(2)
    return [
        _block(
            "fstar",
            3,
            ("F1", v1 * s2 * s1, s2 * s1 * v2),
            ("F2", s1 * s2 * v1, v2 * s1 * s2),
        )
    ]


@dataclass(frozen=True)
class FamilySpec:
    name: str
    min_n: int
    needs_params: bool
    builder: object  # params -> list of shape blocks


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in [
        FamilySpec("TLR", 2, True, _tlr),
        FamilySpec("VCR", 2, False, _vcr),
        FamilySpec("VEV", 2, False, _vev),
        FamilySpec("VBR", 2, False, _vbr),
        FamilySpec("BGR", 3, False, _bgr),
        FamilySpec("F1", 3, False, _forbidden(1)),
        FamilySpec("F2", 3, False, _forbidden(2)),
        FamilySpec("vTL", 3, True, _vtl),
        FamilySpec("FF1", 3, True, _ff(1)),
        FamilySpec("wTL1", 3, True, _wtl(1)),
        FamilySpec("FF2", 3, True, _ff(2)),
        FamilySpec("wTL2", 3, True, _wtl(2)),
        FamilySpec("brauer", 2, False, _brauer),
        FamilySpec("brvtl", 3, True, _brvtl),
        FamilySpec("f_explicit", 3, False, _f_explicit),
        FamilySpec("fstar", 3, False, _fstar),
    ]
}


class Placement(NamedTuple):
    """One instance of a family at size n: its shape on `strands` of n."""

    site: int
    variant: str
    shape: RelationInstance
    strands: tuple[int, ...]

    def lift(self, n: int) -> RelationInstance:
        """The full-size instance: local site s acts at strands[s - 1]."""
        strands = self.strands

        def move(expr: Expr) -> Expr:
            return Expr(
                {
                    tuple(GeneratorSymbol(kind, strands[i - 1]) for kind, i in word): c
                    for word, c in expr.terms.items()
                }
            )

        shape = self.shape
        return RelationInstance(
            shape.family,
            n,
            self.site,
            self.variant,
            move(shape.lhs),
            move(shape.rhs),
            tuple(Group(g.name, g.coeff, move(g.expr)) for g in shape.groups),
        )


def placements(
    family: str, n: int, params: RhoParams | None = None
) -> list[Placement]:
    """Every instance of the family at size n, as its shape and strands.

    A generator at site i acts on strands i and i+1 only, so an instance
    lives on the strands its sites touch, and adding identity strands
    elsewhere is an injective algebra map (X -> X (x) I in the tensor
    model): an instance's residual vanishes at n exactly when its shape's
    does, with the same terms and group verdicts.  The shapes are built
    once per call; the order is that of `relation_instances`.
    """
    spec = FAMILIES.get(family)
    if spec is None:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown relation family {family!r} (known: {known})")
    if n < spec.min_n:
        raise ValueError(f"family {family} needs n >= {spec.min_n}, got {n}")
    if spec.needs_params and params is None:
        raise ValueError(f"family {family} needs parameters")
    out = []
    for block in spec.builder(params):
        if not block.distant:
            k = block.shapes[0].n
            for i in range(1, n - k + 2):
                strands = tuple(range(i, i + k))
                out += [Placement(i, s.variant, s, strands) for s in block.shapes]
            continue
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) < 2 or (i > j and len(block.shapes) == 1):
                    continue
                lo, hi = min(i, j), max(i, j)
                shape = block.shapes[i > j]
                strands = (lo, lo + 1, hi, hi + 1)
                out.append(Placement(i, f"commute j={j}", shape, strands))
    return out


def relation_instances(
    family: str, n: int, params: RhoParams | None = None
) -> list[RelationInstance]:
    return [p.lift(n) for p in placements(family, n, params)]


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


def check_relation(
    instance: RelationInstance, rep: Rep, params: RhoParams
) -> CheckReport:
    """Evaluate lhs - rhs in the representation and report exactly.

    The degenerate regime b = 0, a*c != 0 is rejected for the linear families
    (the instances with groups) with a dedicated error: there the identity
    forces v_i = v_{i+1} and a bare "failed" would be misleading.
    """
    if instance.groups and params.is_degenerate:
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
    residual = lhs - rhs
    zero = residual.is_zero
    norm, witness = rep.describe(residual)
    groups = None
    if not zero and instance.groups:
        groups = {
            g.name: evaluate_expr(g.weighted(), rep, params).is_zero
            for g in instance.groups
        }
    return CheckReport(
        family=instance.family,
        n=instance.n,
        site=instance.site,
        variant=instance.variant,
        params=params,
        residual_zero=zero,
        residual_norm=norm,
        witness=witness,
        groups=groups,
    )
