"""Evaluation of generator words and formal expressions in representations.

Two representations share one small duck-typed surface: the diagram algebra
itself (elements are AlgebraElement) and the tensor-space matrix model
(elements are DenseMatrix).  In the tensor model P*^2 = d P*, so its loop
value is its local dimension d; a rep carries `n`, `lam` and `d` (None in
the diagram rep).  Elements of both carry their own linear arithmetic (`+`,
`-`, `.scale(s)`, `.is_zero`), so a rep supplies only what differs between
the two: `one`, `zero`, `e`, `v`, `mul` and `invert`; `coords(x)`, x's
nonzero `(key, QuadScalar)` pairs in sorted order (keyed by matching, or by
`(row, col)`); `describe(x)`, x's norm string and witness, read from
`coords`; and `probes(seed, samples)`, the rep's random self-checks as
report entries, with `probe_samples` their default count.  `verify` drives
either rep through this surface alone, apart from choosing its local path.

The image of `r<k>^-1` is built like that of `r<k>`, from the closed-form
parameters of `RhoParams.inverse` at the rep's own loop value.  A rep's
`invert` (a minimal-polynomial search in the diagram rep, Gauss-Jordan
elimination in the matrix rep) is the general inverse, and the oracle that
closed form is tested against.
"""

from __future__ import annotations

import random

from .diagrams import compose, random_matching
from .elements import (
    AlgebraElement,
    closure_trace,
    e_element,
    element_inverse,
    element_multiply,
    identity_element,
    v_element,
)
from .errors import NonInvertibleError
from .expressions import Expr
from .linalg import DenseMatrix, invert
from .rho import RhoParams
from .scalars import as_scalar
from .tensorrep import (
    MAX_TENSOR_DIM,
    matching_matrix,
    perm_matrix,
    ptranspose_matrix,
    site_embed,
)
from .words import E, RHO, RHO_INV, V, GeneratorSymbol, GeneratorWord


class DiagramRep:
    """The diagram algebra on n strands at a fixed loop value lambda."""

    kind = "diagram"
    d = None
    probe_samples = 20

    def __init__(self, n: int, lam):
        self.n = n
        self.lam = as_scalar(lam)
        self._one = identity_element(n)
        self._e = {i: e_element(i, n) for i in range(1, n)}
        self._v = {i: v_element(i, n) for i in range(1, n)}

    def one(self) -> AlgebraElement:
        return self._one

    def zero(self) -> AlgebraElement:
        return AlgebraElement.zero(self.n)

    def e(self, i: int) -> AlgebraElement:
        return self._e[i]

    def v(self, i: int) -> AlgebraElement:
        return self._v[i]

    def mul(self, x, y):
        return element_multiply(x, y, self.lam)

    def invert(self, x):
        return element_inverse(x, self.lam)

    def coords(self, x) -> list:
        """x's nonzero (matching, coefficient) pairs, in sorted order."""
        return x.terms()

    def describe(self, x) -> tuple[str, dict | None]:
        """x's norm string and first term, or ("0", None) when x is zero."""
        terms = self.coords(x)
        if not terms:
            return "0", None
        size = max(abs(c.approx()) for _, c in terms)
        m, c = terms[0]
        norm = f"{len(terms)} terms, max |coeff| ~= {size:.6g}"
        return norm, {"matching": m.to_obj(), "coeff": c.to_obj()}

    def probes(self, seed: int, samples: int) -> list[dict]:
        """Associativity and trace cyclicity on random diagram triples."""
        rng = random.Random(seed)
        lam = self.lam
        assoc_ok = trace_ok = True
        for _ in range(samples):
            x = AlgebraElement.from_matching(random_matching(self.n, rng))
            y = AlgebraElement.from_matching(random_matching(self.n, rng))
            z = AlgebraElement.from_matching(random_matching(self.n, rng))
            xy = element_multiply(x, y, lam)
            left = element_multiply(xy, z, lam)
            right = element_multiply(x, element_multiply(y, z, lam), lam)
            if left != right:
                assoc_ok = False
            yx = element_multiply(y, x, lam)
            if closure_trace(xy, lam) != closure_trace(yx, lam):
                trace_ok = False
        return [
            {
                "name": "associativity",
                "samples": samples,
                "status": "pass" if assoc_ok else "fail",
            },
            {
                "name": "trace_cyclicity",
                "samples": samples,
                "status": "pass" if trace_ok else "fail",
            },
        ]


class MatrixRep:
    """Tensor representation on (C^d)^(x n); e_i and v_i act on sites i, i+1."""

    kind = "matrix"

    def __init__(self, n: int, d: int):
        if n < 1:
            raise ValueError("need at least one strand")
        if d < 2:
            raise ValueError("local dimension must be at least 2")
        # d >= 2, so d^n >= 2^n: a large n is refused before d**n is formed.
        if n >= MAX_TENSOR_DIM.bit_length() or d**n > MAX_TENSOR_DIM:
            raise ValueError(
                f"tensor space d^n = {d}^{n} exceeds the cap of"
                f" {MAX_TENSOR_DIM} basis states"
            )
        self.n = n
        self.d = d
        self.lam = as_scalar(d)
        self._e = {i: site_embed(ptranspose_matrix(d), i, self) for i in range(1, n)}
        self._v = {i: site_embed(perm_matrix(d), i, self) for i in range(1, n)}

    def one(self) -> DenseMatrix:
        return DenseMatrix.identity(self.d**self.n)

    def zero(self) -> DenseMatrix:
        return DenseMatrix.zero(self.d**self.n, self.d**self.n)

    def e(self, i: int) -> DenseMatrix:
        return self._e[i]

    def v(self, i: int) -> DenseMatrix:
        return self._v[i]

    def mul(self, x, y):
        return x * y

    def invert(self, x):
        return invert(x)

    @property
    def probe_samples(self) -> int:
        """Fewer samples as d^n grows: each one multiplies d^n matrices."""
        dim = self.d**self.n
        if dim <= 64:
            return 12
        if dim <= 256:
            return 4
        return 2

    def coords(self, x) -> list:
        """x's nonzero ((row, col), entry) pairs, in row-major order."""
        return [((r, c), e) for r, c, e in x.nonzeros()]

    def describe(self, x) -> tuple[str, dict | None]:
        """x's norm string and first nonzero entry, or ("0", None) when x is zero."""
        entries = self.coords(x)
        if not entries:
            return "0", None
        size = max(abs(e.approx()) for _, e in entries)
        (r, c), entry = entries[0]
        norm = f"{len(entries)} entries, max |entry| ~= {size:.6g}"
        return norm, {"row": r, "col": c, "entry": entry.to_obj()}

    def probes(self, seed: int, samples: int) -> list[dict]:
        """Stacking two random diagrams is their matrices' product."""
        rng = random.Random(seed)
        ok = True
        for _ in range(samples):
            x = random_matching(self.n, rng)
            y = random_matching(self.n, rng)
            prod, loops = compose(x, y)
            lhs = matching_matrix(x, self) * matching_matrix(y, self)
            rhs = matching_matrix(prod, self).scale(self.lam**loops)
            if lhs != rhs:
                ok = False
        return [
            {
                "name": "stacking_homomorphism",
                "samples": samples,
                "status": "pass" if ok else "fail",
            }
        ]


Rep = DiagramRep | MatrixRep


def make_rep(kind: str, n: int, lam) -> Rep:
    """The `kind` ("diagram" or "matrix") rep on n strands at loop value `lam`.

    The matrix rep's local dimension is its loop value, so there `lam` must
    be an integer.  Any other kind raises ValueError.
    """
    if kind == "diagram":
        return DiagramRep(n, lam)
    if kind != "matrix":
        raise ValueError(f"unknown rep kind {kind!r} (known: diagram, matrix)")
    lam = as_scalar(lam)
    if not lam.is_rational or lam.xd != 1:
        raise ValueError(
            f"the matrix rep's loop value is its local dimension d,"
            f" an integer; got lambda={lam}"
        )
    return MatrixRep(n, lam.xn)


def rho_image(rep: Rep, i: int, params: RhoParams):
    return rep.one().scale(params.a) + rep.e(i).scale(params.b) + rep.v(i).scale(params.c)


def symbol_image(rep: Rep, sym: GeneratorSymbol, params: RhoParams | None = None):
    if sym.kind == E:
        return rep.e(sym.index)
    if sym.kind == V:
        return rep.v(sym.index)
    if params is None:
        raise ValueError(f"symbol {sym!r} needs rho parameters")
    if sym.kind == RHO:
        return rho_image(rep, sym.index, params)
    inverse = params.inverse(rep.lam)
    if inverse is None:
        raise NonInvertibleError(f"rho_{sym.index} is not invertible here")
    return rho_image(rep, sym.index, inverse)


def evaluate_word(
    word, rep: Rep, params: RhoParams | None = None, images: dict | None = None
):
    """Product of the images of a word's symbols, left to right.

    `word` is a GeneratorWord, whose strand count must match the rep's, or a
    bare sequence of symbols such as the words inside an Expr.  Each distinct
    symbol's image (for `r<k>^-1` an inverse) is built once and kept in
    `images`, a symbol -> image dict that callers may share between words
    evaluated in the same rep at the same params.
    """
    if isinstance(word, GeneratorWord):
        if word.n != rep.n:
            raise ValueError(f"word on n={word.n} evaluated in rep on n={rep.n}")
        word = word.symbols
    if images is None:
        images = {}
    out = None
    for sym in word:
        image = images.get(sym)
        if image is None:
            image = images[sym] = symbol_image(rep, sym, params)
        out = image if out is None else rep.mul(out, image)
    return rep.one() if out is None else out


def evaluate_expr(expr: Expr, rep: Rep, params: RhoParams | None = None):
    total = rep.zero()
    images = {}
    for word, coeff in expr.terms.items():
        value = evaluate_word(word, rep, params, images)
        total = total + value.scale(coeff)
    return total
