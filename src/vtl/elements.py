"""Linear combinations of matchings with exact quadratic-field coefficients.

An AlgebraElement is a finite map Matching -> QuadScalar with zero terms
pruned, so equality of elements is equality of canonical term lists.  The
loop parameter lambda enters only through multiplication: each closed loop
produced while gluing two diagrams contributes one factor of lambda.
"""

from __future__ import annotations

from operator import attrgetter

from .diagrams import Matching, closure_loops, compose, e_diagram, identity_diagram, v_diagram
from .errors import StrandMismatchError
from .scalars import ONE, ZERO, QuadScalar, as_scalar

_pairs = attrgetter("pairs")


def _term_pairs(term: tuple[Matching, QuadScalar]):
    return term[0].pairs


class AlgebraElement:
    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: dict[Matching, QuadScalar] | None = None):
        pruned: dict[Matching, QuadScalar] = {}
        # every term shares n once the check passes, so pairs alone order them
        for m in sorted(terms or {}, key=_pairs):
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
        items = sorted(terms.items(), key=_term_pairs)
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


def element_add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    if x.n != y.n:
        raise StrandMismatchError(f"cannot add elements on n={x.n} and n={y.n}")
    terms = dict(x._terms)
    for m, c in y._terms.items():
        prev = terms.get(m)
        terms[m] = c if prev is None else prev + c
    return AlgebraElement._trusted(x.n, terms)


def element_scale(s, x: AlgebraElement) -> AlgebraElement:
    s = as_scalar(s)
    return AlgebraElement._trusted(x.n, {m: s * c for m, c in x._terms.items()})


def element_neg(x: AlgebraElement) -> AlgebraElement:
    return element_scale(-1, x)


def element_sub(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return element_add(x, element_neg(y))


def element_multiply(x: AlgebraElement, y: AlgebraElement, lam) -> AlgebraElement:
    """Bilinear extension of diagram stacking, with lambda per closed loop."""
    if x.n != y.n:
        raise StrandMismatchError(f"cannot multiply elements on n={x.n} and n={y.n}")
    lam = as_scalar(lam)
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
    return AlgebraElement._trusted(x.n, terms)


def closure_trace(x: AlgebraElement, lam) -> QuadScalar:
    """Markov trace: close each diagram up and weight by lambda^loops."""
    lam = as_scalar(lam)
    total = ZERO
    for m, c in x._terms.items():
        total = total + c * lam ** closure_loops(m)
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
            inv = element_scale(QuadScalar(-1), powers[-1])
            for j in range(1, len(powers)):
                inv = element_add(inv, element_scale(coeffs[j], powers[j - 1]))
            return element_scale(QuadScalar(-1) / c0, inv)
        powers.append(nxt)
        columns.append(target)
