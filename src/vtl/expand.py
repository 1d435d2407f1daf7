"""Brute-force expansion of the braid relation, independent of the registry.

`relations` stores the linear identity with hand-entered coefficients.  This
module re-derives it mechanically: expand rho_1 rho_2 rho_1 minus
rho_2 rho_1 rho_2 as an `Expr` in the symbols e1, e2, v1, v2, then push every
word to a normal form with a terminating rewrite system.  The registry entry
is correct iff both normal forms coincide.

Rules, each oriented to decrease (length, then rank-lex with
e1 < e2 < v1 < v2, which is `Expr`'s word order):

    e1 e1 -> lam e1     e2 e2 -> lam e2     v1 v1 -> 1     v2 v2 -> 1
    e1 e2 e1 -> e1      e2 e1 e2 -> e2
    v1 e1 -> e1 v1      v2 e2 -> e2 v2
    v2 e1 v2 -> v1 e2 v1      v2 v1 v2 -> v1 v2 v1
    v1 v2 e1 -> e2 v1 v2      v2 v1 e2 -> e1 v2 v1

The last two are consequences: conjugating v1 e2 v1 = v2 e1 v2 by v1 gives
e2 v1 v2 = v1 v2 e1, and conjugating by v2 gives e1 v2 v1 = v2 v1 e2.

Every rule preserves the algebra element, so equal normal forms prove
equality.  The system is not confluent on arbitrary words (it does not need
to be): it is used only on the bounded set of words arising from degree-3
products of rho letters, where both sides of the comparison reduce to a
common form.
"""

from __future__ import annotations

from .expressions import Expr, Word, gen_e, gen_v
from .relations import relation_instances
from .rho import RhoParams
from .scalars import QuadScalar
from .words import E, V, GeneratorSymbol

E1, E2 = GeneratorSymbol(E, 1), GeneratorSymbol(E, 2)
V1, V2 = GeneratorSymbol(V, 1), GeneratorSymbol(V, 2)

# (pattern, replacement, whether the replacement carries a factor lam)
_RULES: list[tuple[Word, Word, bool]] = [
    ((E1, E1), (E1,), True),
    ((E2, E2), (E2,), True),
    ((V1, V1), (), False),
    ((V2, V2), (), False),
    ((E1, E2, E1), (E1,), False),
    ((E2, E1, E2), (E2,), False),
    ((V1, E1), (E1, V1), False),
    ((V2, E2), (E2, V2), False),
    ((V2, E1, V2), (V1, E2, V1), False),
    ((V2, V1, V2), (V1, V2, V1), False),
    ((V1, V2, E1), (E2, V1, V2), False),
    ((V2, V1, E2), (E1, V2, V1), False),
]


def _rewrite_once(word: Word) -> tuple[Word, bool] | None:
    for pos in range(len(word)):
        for pattern, repl, scaled in _RULES:
            k = len(pattern)
            if word[pos : pos + k] == pattern:
                return word[:pos] + repl + word[pos + k :], scaled
    return None


def normal_form(expr: Expr, lam: QuadScalar) -> Expr:
    out: dict[Word, QuadScalar] = {}
    stack = list(expr.terms.items())
    while stack:
        word, coeff = stack.pop()
        step = _rewrite_once(word)
        if step is None:
            prev = out.get(word)
            out[word] = coeff if prev is None else prev + coeff
        else:
            new_word, scaled = step
            stack.append((new_word, coeff * lam if scaled else coeff))
    return Expr(out)


def expand_bgr(params: RhoParams) -> Expr:
    """Normal form of rho_1 rho_2 rho_1 - rho_2 rho_1 rho_2, fully expanded."""
    a, b, c = params.a, params.b, params.c
    rho1 = Expr.one().scale(a) + gen_e(1).scale(b) + gen_v(1).scale(c)
    rho2 = Expr.one().scale(a) + gen_e(2).scale(b) + gen_v(2).scale(c)
    return normal_form(rho1 * rho2 * rho1 - rho2 * rho1 * rho2, params.lam)


def registry_combo(params: RhoParams) -> Expr:
    """Normal form of the stored linear identity on three strands."""
    inst = relation_instances("vTL", 3, params)[0]
    return normal_form(inst.lhs - inst.rhs, params.lam)


def braid_matches_registry(params: RhoParams) -> bool:
    """True iff brute expansion and registry agree as normal forms."""
    return expand_bgr(params) == registry_combo(params)
