"""Linear combinations of matchings with exact quadratic-field coefficients.

An AlgebraElement is a finite map Matching -> coefficient with zero terms
pruned.  The loop parameter lambda enters only through multiplication: each
closed loop produced while gluing two diagrams contributes one factor of
lambda.

Terms are keyed by partner arrays: a `Matching`, or the equal plain tuple
that `generator_images` builds more cheaply.  They are stored unordered and
sorted by matching when read out: `terms()` hands out `Matching` keys in
that order, and `to_obj`, `__repr__`, pickling and a rep's witness read them
through it.

Coefficients are stored as pairs of ints over one denominator per element.
A run's scalars share one field Q(sqrt D) with D = Dn/Dd stored reduced, and
sqrt(D) = sqrt(Dn*Dd)/Dd, so every coefficient is (p + q*sqrt(Dn*Dd))/den
for ints p, q and the element's positive `den`.  The element's field tag is
(Dn, Dd), or None when every q is 0: a rational element combines with any
field, and two different tags raise FieldMismatchError.  Arithmetic runs on
the ints alone and divides by the gcd of `den` and all the ints once per
result, so each element has one stored set of terms, and `==` and `hash`
compare that set in any storage order.  QuadScalars appear only at the
boundary: the constructor and `.scale` take them, and `terms`, `coeff`,
`to_obj` and `closure_trace` give them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .diagrams import (
    CROSS,
    CUP,
    IDENTITY,
    Matching,
    closure_loops,
    compose,
    e_diagram,
    generator_images,
    generator_table,
    identity_diagram,
    v_diagram,
)
from .errors import FieldMismatchError, StrandMismatchError
from .scalars import ONE, ZERO, QuadScalar, _make, as_scalar

Field = tuple[int, int] | None  # (Dn, Dd) of the coefficients' sqrt(D), None if rational

_first = itemgetter(0)


def _matching(m: tuple) -> Matching:
    """The partner array m as a `Matching`, m itself when it is one."""
    return m if type(m) is Matching else tuple.__new__(Matching, m)


def _split(s: QuadScalar) -> tuple[int, int, int, Field]:
    """s as (p, q, den, field), s = (p + q*sqrt(Dn*Dd))/den in lowest terms."""
    if not s.yn:
        return s.xn, 0, s.xd, None
    yd = s.yd * s.Dd
    den = lcm(s.xd, yd)
    p, q = s.xn * (den // s.xd), s.yn * (den // yd)
    g = gcd(p, q, den)
    return p // g, q // g, den // g, (s.Dn, s.Dd)


def _scalar(p: int, q: int, den: int, field: Field) -> QuadScalar:
    """(p + q*sqrt(Dn*Dd))/den as a QuadScalar; the ints need not be reduced."""
    g = gcd(p, den)
    if not q:
        return _make(p // g, den // g, 0, 1, 0, 1)
    Dn, Dd = field
    yn = q * Dd
    h = gcd(yn, den)
    return _make(p // g, den // g, yn // h, den // h, Dn, Dd)


def _join(f: Field, g: Field) -> Field:
    """The field both tags lie in; None (rational) joins any field."""
    if f is None:
        return g
    if g is None or f == g:
        return f
    raise FieldMismatchError(
        f"cannot combine scalars over sqrt({Fraction(*f)}) and sqrt({Fraction(*g)})"
    )


def _radicand(field: Field) -> int:
    """Dn*Dd, the integer under the stored square root; 0 when rational."""
    return 0 if field is None else field[0] * field[1]


class AlgebraElement:
    __slots__ = ("n", "_den", "_field", "_terms")

    def __init__(self, n: int, terms: dict[Matching, QuadScalar] | None = None):
        field = None
        split = {}
        for m, c in (terms or {}).items():
            if m.n != n:
                raise StrandMismatchError(f"term on n={m.n} in element on n={n}")
            p, q, d, f = _split(c)
            field = _join(field, f)
            split[m] = p, q, d
        den = lcm(*(d for _, _, d in split.values()))
        pairs = {m: (p * (den // d), q * (den // d)) for m, (p, q, d) in split.items()}
        _fill(self, n, den, field, pairs)

    @classmethod
    def _trusted(cls, n: int, den: int, field: Field, terms: dict) -> AlgebraElement:
        """The element sum(terms[m] m)/den for (p, q) pairs on n strands.

        No strand check; zero pairs are pruned and every int divided by the
        gcd of den and all the pairs.  `terms` may be kept as it is, so the
        caller hands it over.
        """
        out = _new(cls)
        _fill(out, n, den, field, terms)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls, n: int) -> AlgebraElement:
        return cls._trusted(n, 1, None, {})

    @classmethod
    def from_matching(cls, m: Matching, coeff=ONE) -> AlgebraElement:
        p, q, den, field = _split(as_scalar(coeff))
        return cls._trusted(m.n, den, field, {m: (p, q)})

    def terms(self) -> list[tuple[Matching, QuadScalar]]:
        """The nonzero terms as (Matching, coefficient), sorted by matching."""
        den, field = self._den, self._field
        return [
            (_matching(m), _scalar(p, q, den, field))
            for m, (p, q) in sorted(self._terms.items(), key=_first)
        ]

    def coeff(self, m: Matching) -> QuadScalar:
        pair = self._terms.get(m)
        return ZERO if pair is None else _scalar(*pair, self._den, self._field)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.n == other.n
            and self._den == other._den
            and self._field == other._field
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self._den, self._field, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"AlgebraElement(n={self.n}, 0)"
        body = " + ".join(f"({c}) {m!r}" for m, c in self.terms())
        return f"AlgebraElement(n={self.n}, {body})"

    def __reduce__(self):
        return AlgebraElement, (self.n, dict(self.terms()))

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        if self.n != other.n:
            raise StrandMismatchError(f"cannot add elements on n={self.n} and n={other.n}")
        if not other._terms:
            return self
        if not self._terms:
            return other
        field = _join(self._field, other._field)
        den = lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        terms = {m: (p * s, q * s) for m, (p, q) in self._terms.items()}
        for m, (p, q) in other._terms.items():
            prev = terms.get(m)
            terms[m] = (p * t, q * t) if prev is None else (prev[0] + p * t, prev[1] + q * t)
        return AlgebraElement._trusted(self.n, den, field, terms)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def __neg__(self) -> AlgebraElement:
        terms = {m: (-p, -q) for m, (p, q) in self._terms.items()}
        return AlgebraElement._trusted(self.n, self._den, self._field, terms)

    def scale(self, s) -> AlgebraElement:
        sp, sq, sden, sfield = _split(as_scalar(s))
        if not self._terms or (sp == sden == 1 and not sq):
            return self  # zero, or scaled by 1
        field = _join(self._field, sfield)
        root = _radicand(field)
        terms = {
            m: (p * sp + root * q * sq, p * sq + q * sp)
            for m, (p, q) in self._terms.items()
        }
        return AlgebraElement._trusted(self.n, self._den * sden, field, terms)

    def to_obj(self) -> list[dict]:
        return [{"matching": m.to_obj(), "coeff": c.to_obj()} for m, c in self.terms()]


# The slots' own setters get past the immutability guard in `__setattr__`.
_new = object.__new__
_set_n = AlgebraElement.n.__set__
_set_den = AlgebraElement._den.__set__
_set_field = AlgebraElement._field.__set__
_set_terms = AlgebraElement._terms.__set__


def _fill(out: AlgebraElement, n: int, den: int, field: Field, terms: dict) -> None:
    """Store terms/den on out in canonical form: no zero pair, gcd 1.

    `terms` maps partner arrays to (p, q) tuples.  It is stored as it is
    when no pair is zero and the gcd is already 1; otherwise one pruned and
    divided copy is.  Term order is left alone: `terms()` sorts on read-out.
    """
    g = den  # stays den when nothing is kept, so an empty element gets den 1
    irrational = pruned = False
    for p, q in terms.values():
        if q:
            irrational = True
        elif not p:
            pruned = True
            continue
        if g != 1:
            g = gcd(g, p, q)
    _set_n(out, n)
    _set_den(out, den // g)
    _set_field(out, field if irrational else None)
    if pruned or g != 1:
        terms = {m: (p // g, q // g) for m, (p, q) in terms.items() if p or q}
    _set_terms(out, terms)


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
    `generator_images`, all of x's diagrams in one batch per term of y;
    otherwise each pair of diagrams is glued by `compose`.  On the generator
    path the coefficients of x that land on one diagram under e_i are summed
    first, a closed loop weighted by lambda, and the sum is scaled by the
    generator's coefficient once: e_i sends many diagrams to one, while the
    identity and v_i send them one to one and close no loop.

    All of it is int arithmetic on the stored pairs: with r = Dn*Dd,
    (a + b sqrt r)(c + d sqrt r) = (ac + r bd) + (ad + bc) sqrt r, and
    lambda = (lp + lq sqrt r)/lden is a pair over its own denominator, so
    the result lies over x's, y's and lambda's denominators multiplied.
    """
    if x.n != y.n:
        raise StrandMismatchError(f"cannot multiply elements on n={x.n} and n={y.n}")
    lp, lq, lden, lfield = _split(as_scalar(lam))
    field = x._field
    if y._field != field:
        field = _join(field, y._field)
    if lfield != field:
        field = _join(field, lfield)
    root = _radicand(field)
    n = x.n
    table = generator_table(n)
    factors = []
    for my, pair in y._terms.items():
        gen = table.get(my)
        if gen is None:
            den, terms = _glued_terms(x, y, lp, lq, lden, root)
            return AlgebraElement._trusted(n, den, field, terms)
        factors.append((gen, pair))
    terms: dict[Matching, tuple[int, int]] = {}
    for (kind, site), (cp, cq) in factors:
        if kind == CUP:
            images: dict[Matching, tuple[int, int]] = {}
            landing, closed = generator_images(x._terms, n, CUP, site)
            for glued, loops, (p, q) in zip(landing, closed, x._terms.values()):
                if loops:  # a product closes at most one loop
                    p, q = p * lp + root * q * lq, p * lq + q * lp
                elif lden != 1:
                    p, q = p * lden, q * lden
                prev = images.get(glued)
                images[glued] = (p, q) if prev is None else (prev[0] + p, prev[1] + q)
        else:  # one to one and no loop closes: the weight is lden/lden
            cp, cq = cp * lden, cq * lden
            images = x._terms if kind == IDENTITY else dict(
                zip(generator_images(x._terms, n, CROSS, site)[0], x._terms.values())
            )
        if not terms and cp == 1 and not cq:  # a first factor of numerator 1
            terms = dict(images) if images is x._terms else images  # never x's own dict
            continue
        for glued, (p, q) in images.items():
            p, q = p * cp + root * q * cq, p * cq + q * cp
            prev = terms.get(glued)
            terms[glued] = (p, q) if prev is None else (prev[0] + p, prev[1] + q)
    return AlgebraElement._trusted(n, x._den * y._den * lden, field, terms)


def _loop_weight(lp: int, lq: int, lden: int, root: int, k: int, top: int) -> tuple[int, int]:
    """lambda^k as a pair over lden^top, for k <= top."""
    p, q = 1, 0
    for _ in range(k):
        p, q = p * lp + root * q * lq, p * lq + q * lp
    s = lden ** (top - k)
    return p * s, q * s


def _glued_terms(x: AlgebraElement, y: AlgebraElement, lp: int, lq: int, lden: int,
                 root: int) -> tuple[int, dict[Matching, tuple[int, int]]]:
    """The denominator and pairs of x * y, each pair of diagrams glued by `compose`.

    A closed loop alternates between the two diagrams' edges at the middle
    row of n points, so it passes through at least two of them and one
    product closes at most n // 2 loops; every weight lambda^k is put over
    lden^(n // 2).
    """
    top = x.n // 2
    weights = {0: (lden**top, 0)}
    terms: dict[Matching, tuple[int, int]] = {}
    for mx, (xp, xq) in x._terms.items():
        for my, (yp, yq) in y._terms.items():
            glued, loops = compose(mx, my)
            p, q = xp * yp + root * xq * yq, xp * yq + xq * yp
            weight = weights.get(loops)
            if weight is None:
                weight = weights[loops] = _loop_weight(lp, lq, lden, root, loops, top)
            wp, wq = weight
            if wq or wp != 1:
                p, q = p * wp + root * q * wq, p * wq + q * wp
            prev = terms.get(glued)
            terms[glued] = (p, q) if prev is None else (prev[0] + p, prev[1] + q)
    return x._den * y._den * lden**top, terms


def closure_trace(x: AlgebraElement, lam) -> QuadScalar:
    """Markov trace: close each diagram up and weight by lambda^loops.

    Coefficients are summed per loop count first, so each power of lambda
    multiplies once.
    """
    lp, lq, lden, lfield = _split(as_scalar(lam))
    field = _join(x._field, lfield)
    root = _radicand(field)
    by_loops: dict[int, tuple[int, int]] = {}
    for m, (p, q) in x._terms.items():
        k = closure_loops(m)
        prev = by_loops.get(k)
        by_loops[k] = (p, q) if prev is None else (prev[0] + p, prev[1] + q)
    top = max(by_loops, default=0)
    tp = tq = 0
    for k, (p, q) in by_loops.items():
        wp, wq = _loop_weight(lp, lq, lden, root, k, top)
        tp += p * wp + root * q * wq
        tq += p * wq + q * wp
    return _scalar(tp, tq, x._den * lden**top, field)


def element_inverse(x: AlgebraElement, lam) -> AlgebraElement | None:
    """Inverse of x in the diagram algebra at the given lambda, or None.

    Works inside the unital subalgebra generated by x: powers of x are
    accumulated until they become linearly dependent, giving the minimal
    polynomial; x is invertible exactly when its constant term is nonzero,
    and then the inverse is read off the remaining coefficients.  The
    powers' coefficients enter `solve_columns` as QuadScalars.
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
