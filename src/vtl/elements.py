"""Linear combinations of matchings with exact quadratic-field coefficients.

An AlgebraElement is a finite map Matching -> QuadScalar with zero terms
pruned, so equality of elements is equality of canonical term lists.  The
loop parameter lambda enters only through multiplication: each closed loop
produced while gluing two diagrams contributes one factor of lambda.
"""

from __future__ import annotations

from operator import itemgetter

from .diagrams import (
    Matching,
    apply_generator,
    closure_loops,
    compose,
    e_diagram,
    generator_table,
    identity_diagram,
    v_diagram,
)
from .errors import StrandMismatchError
from .scalars import ONE, ZERO, QuadScalar, as_scalar

_matching = itemgetter(0)


class AlgebraElement:
    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[Matching, QuadScalar] | None = None):
        pruned: dict[Matching, QuadScalar] = {}
        # every term shares n once the check passes, so matchings order as pairs
        for m in sorted(terms or {}):
            if m.n != n:
                raise StrandMismatchError(f"term on n={m.n} in element on n={n}")
            coeff = terms[m]
            if not coeff.is_zero:
                pruned[m] = coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", pruned)

    @classmethod
    def _trusted(cls, n: int, terms: dict[Matching, QuadScalar]) -> AlgebraElement:
        """Sort and prune terms already known to lie on n strands; no strand check."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        items = sorted(terms.items(), key=_matching)
        object.__setattr__(out, "_terms", {m: c for m, c in items if not c.is_zero})
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls, n: int) -> AlgebraElement:
        return cls(n, {})

    @classmethod
    def from_matching(cls, m: Matching, coeff=ONE) -> AlgebraElement:
        return cls(m.n, {m: as_scalar(coeff)})

    def terms(self) -> list[tuple[Matching, QuadScalar]]:
        return list(self._terms.items())

    def coeff(self, m: Matching) -> QuadScalar:
        return self._terms.get(m, ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, tuple(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"AlgebraElement(n={self.n}, 0)"
        body = " + ".join(f"({c}) {m!r}" for m, c in self._terms.items())
        return f"AlgebraElement(n={self.n}, {body})"

    def __reduce__(self):
        return AlgebraElement, (self.n, dict(self._terms))

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if self.n != other.n:
            raise StrandMismatchError(f"cannot add elements on n={self.n} and n={other.n}")
        terms = dict(self._terms)
        for m, c in other._terms.items():
            prev = terms.get(m)
            terms[m] = c if prev is None else prev + c
        return AlgebraElement._trusted(self.n, terms)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def __neg__(self) -> AlgebraElement:
        return self.scale(-1)

    def scale(self, s) -> AlgebraElement:
        s = as_scalar(s)
        return AlgebraElement._trusted(self.n, {m: s * c for m, c in self._terms.items()})

    def to_obj(self) -> list[dict]:
        return [
            {"matching": m.to_obj(), "coeff": c.to_obj()}
            for m, c in self._terms.items()
        ]


def identity_element(n: int) -> AlgebraElement:
    return AlgebraElement.from_matching(identity_diagram(n))

def e_element(i: int, n: int) -> AlgebraElement:
    return AlgebraElement.from_matching(e_diagram(i, n))

def v_element(i: int, n: int) -> AlgebraElement:
    return AlgebraElement.from_matching(v_diagram(i, n))


def element_multiply(x: AlgebraElement, y: AlgebraElement, lam) -> AlgebraElement:
    """Bilinear extension of diagram stacking, with lambda per closed loop.

    When every term of y is a generator matching (the identity, some e_i or
    v_i), as in every symbol image, each product is read off x's diagrams by
    `apply_generator`; otherwise each pair of diagrams is glued by `compose`.
    On the generator path the coefficients of x that land on one diagram are
    summed first, a closed loop weighted by lambda, and the sum is scaled by
    the generator's coefficient once: e_i sends many diagrams to one.
    """
    if x.n != y.n:
        raise StrandMismatchError(f"cannot multiply elements on n={x.n} and n={y.n}")
    lam = as_scalar(lam)
    table = generator_table(y.n)
    factors = []
    for my, cy in y._terms.items():
        gen = table.get(my)
        if gen is None:
            return AlgebraElement._trusted(x.n, _glued_terms(x, y, lam))
        factors.append((*gen, cy))
    terms: dict[Matching, QuadScalar] = {}
    for kind, site, cy in factors:
        images: dict[Matching, QuadScalar] = {}
        for mx, cx in x._terms.items():
            glued, loops = apply_generator(mx, kind, site)
            if loops:  # a product closes at most one loop
                cx = cx * lam
            prev = images.get(glued)
            images[glued] = cx if prev is None else prev + cx
        unit = cy == ONE
        for glued, c in images.items():
            weight = c if unit else c * cy
            prev = terms.get(glued)
            terms[glued] = weight if prev is None else prev + weight
    return AlgebraElement._trusted(x.n, terms)


def _glued_terms(x: AlgebraElement, y: AlgebraElement, lam: QuadScalar) -> dict[Matching, QuadScalar]:
    """The terms of x * y, each pair of diagrams glued by `compose`."""
    lam_pow = [ONE]  # lam_pow[k] = lam**k, grown as more loops close
    terms: dict[Matching, QuadScalar] = {}
    for mx, cx in x._terms.items():
        for my, cy in y._terms.items():
            glued, loops = compose(mx, my)
            weight = cx * cy
            if loops:
                while len(lam_pow) <= loops:
                    lam_pow.append(lam_pow[-1] * lam)
                weight = weight * lam_pow[loops]
            prev = terms.get(glued)
            terms[glued] = weight if prev is None else prev + weight
    return terms


def closure_trace(x: AlgebraElement, lam) -> QuadScalar:
    """Markov trace: close each diagram up and weight by lambda^loops.

    Coefficients are summed per loop count first, so each power of lambda
    multiplies once.
    """
    lam = as_scalar(lam)
    by_loops: dict[int, QuadScalar] = {}
    for m, c in x._terms.items():
        k = closure_loops(m)
        prev = by_loops.get(k)
        by_loops[k] = c if prev is None else prev + c
    total = ZERO
    for k in sorted(by_loops):
        total = total + by_loops[k] * lam**k
    return total


def element_inverse(x: AlgebraElement, lam) -> AlgebraElement | None:
    """Inverse of x in the diagram algebra at the given lambda, or None.

    Works inside the unital subalgebra generated by x: powers of x are
    accumulated until they become linearly dependent, giving the minimal
    polynomial; x is invertible exactly when its constant term is nonzero,
    and then the inverse is read off the remaining coefficients.
    """
    from .linalg import solve_columns

    lam = as_scalar(lam)
    powers = [identity_element(x.n)]
    basis: list[Matching] = []
    index: dict[Matching, int] = {}
    columns: list[dict[int, QuadScalar]] = []

    def column_of(elem: AlgebraElement) -> dict[int, QuadScalar]:
        col = {}
        for m, c in elem.terms():
            if m not in index:
                index[m] = len(basis)
                basis.append(m)
            col[index[m]] = c
        return col

    columns.append(column_of(powers[0]))
    while True:
        nxt = element_multiply(powers[-1], x, lam)
        target = column_of(nxt)
        coeffs = solve_columns(columns, target, len(basis))
        if coeffs is not None:
            # x^k = sum coeffs[j] x^j, so x * (x^{k-1} - sum_{j>=1} ...) = c0.
            c0 = coeffs[0]
            if c0.is_zero:
                return None
            inv = -powers[-1]
            for j in range(1, len(powers)):
                inv = inv + powers[j - 1].scale(coeffs[j])
            return inv.scale(QuadScalar(-1) / c0)
        powers.append(nxt)
        columns.append(target)
