"""Formal linear combinations of generator words.

These are *syntax*: nothing is reduced beyond collecting equal words. The
relation registry states its identities as Expr pairs and representations
evaluate them later.  Multiplication concatenates words distributively.
"""

from __future__ import annotations

from .scalars import ONE, QuadScalar, as_scalar
from .words import E, RHO, V, GeneratorSymbol

Word = tuple[GeneratorSymbol, ...]

_KIND_RANK = {E: 0, V: 1, RHO: 2}


def _word_key(word: Word):
    return (len(word), tuple((_KIND_RANK.get(s.kind, 9), s.index) for s in word))


class Expr:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, QuadScalar] | None = None):
        items = (terms or {}).items()
        if len(items) > 1:
            items = sorted(items, key=lambda kv: _word_key(kv[0]))
        object.__setattr__(self, "terms", {w: c for w, c in items if not c.is_zero})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        return Expr, (dict(self.terms),)

    @classmethod
    def zero(cls) -> Expr:
        return cls({})

    @classmethod
    def one(cls) -> Expr:
        return cls({(): ONE})

    @classmethod
    def gen(cls, sym: GeneratorSymbol) -> Expr:
        return cls({(sym,): ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Expr) -> Expr:
        terms = dict(self.terms)
        for w, c in other.terms.items():
            prev = terms.get(w)
            terms[w] = c if prev is None else prev + c
        return Expr(terms)

    def __sub__(self, other: Expr) -> Expr:
        return self + (-other)

    def __neg__(self) -> Expr:
        return self.scale(-1)

    def scale(self, s) -> Expr:
        s = as_scalar(s)
        return Expr({w: s * c for w, c in self.terms.items()})

    def __mul__(self, other: Expr) -> Expr:
        terms: dict[Word, QuadScalar] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa + wb
                prev = terms.get(w)
                terms[w] = ca * cb if prev is None else prev + ca * cb
        return Expr(terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if self.is_zero:
            return "Expr(0)"
        parts = []
        for w, c in self.terms.items():
            word = " ".join(repr(s) for s in w) if w else "1"
            parts.append(f"({c})*{word}")
        return "Expr(" + " + ".join(parts) + ")"


def gen_e(i: int) -> Expr:
    return Expr.gen(GeneratorSymbol(E, i))

def gen_v(i: int) -> Expr:
    return Expr.gen(GeneratorSymbol(V, i))

def gen_rho(i: int) -> Expr:
    return Expr.gen(GeneratorSymbol(RHO, i))


def e_star(i: int) -> Expr:
    """Complementary idempotent 1 - e_i (permutation-like at lambda = 2)."""
    return Expr.one() - gen_e(i)

