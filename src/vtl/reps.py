"""Evaluation of generator words and formal expressions in representations.

Two representations share one small duck-typed surface: the diagram algebra
itself (elements are AlgebraElement) and the tensor-space matrix model
(elements are DenseMatrix).  In the tensor model P*^2 = d P*, so its loop
value is its local dimension d; a rep carries `n`, `lam` and `d` (None in
the diagram rep).  Elements of both carry their own linear arithmetic (`+`,
`-`, `.scale(s)`, `.is_zero`), so a rep supplies only what differs between
the two: `one`, `zero`, `e`, `v`, `mul` and `invert`; `combine(items)`, the
sum of c x over `(x, c)` pairs (one pass over int pairs in the diagram rep,
a `zero() + x.scale(c)` fold in the matrix rep); `coords(x)`, x's
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
    element_sum,
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
    payload = "terms"  # the key of `vtl eval`'s JSON value
    d = None
    probe_samples = 20

    def __init__(self, n: int, lam):
        self.n = n
        self.lam = as_scalar(lam)
        self._one = identity_element(n)
        self._e: dict[int, AlgebraElement] = {}  # built on first use
        self._v: dict[int, AlgebraElement] = {}

    def one(self) -> AlgebraElement:
        return self._one

    def zero(self) -> AlgebraElement:
        return AlgebraElement.zero(self.n)

    def e(self, i: int) -> AlgebraElement:
        return self._e.get(i) or self._e.setdefault(i, e_element(i, self.n))

    def v(self, i: int) -> AlgebraElement:
        return self._v.get(i) or self._v.setdefault(i, v_element(i, self.n))

    def mul(self, x, y):
        return element_multiply(x, y, self.lam)

    def combine(self, items) -> AlgebraElement:
        """sum c x over the (x, c) pairs of `items`, in one pass."""
        return element_sum(self.n, items)

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

    def eval_lines(self, word: str, x) -> list[str]:
        """`vtl eval`'s text form of x, the product of `word`."""
        head = [f"{word}  (n={self.n}, lambda={self.lam})"] + (["= 0"] if x.is_zero else [])
        return head + [f"  {c}  *  {m.to_obj()}" for m, c in x.terms()]

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
    payload = "matrix"

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

    def combine(self, items) -> DenseMatrix:
        """sum c x over the (x, c) pairs of `items`, one scale and one add each."""
        total = self.zero()
        for x, c in items:
            total = total + x.scale(c)
        return total

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

    def eval_lines(self, word: str, x) -> list[str]:
        """`vtl eval`'s text form of x, the product of `word`."""
        head = f"{word}  (n={self.n}, d={self.d}: {x.rows}x{x.cols} matrix)"
        return [head, f"trace = {x.trace()}", f"nonzero entries = {x.nnz}"]

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


def symbol_image(rep: Rep, sym: GeneratorSymbol, params: RhoParams | None = None, inverse=None):
    """The image of `sym` in `rep`; `inverse`, if given, is `inverse_params`'s value."""
    if sym.kind == E:
        return rep.e(sym.index)
    if sym.kind == V:
        return rep.v(sym.index)
    if sym.kind == RHO_INV:
        return rho_image(rep, sym.index, inverse or inverse_params(rep, sym, params))
    if params is None:
        raise ValueError(f"symbol {sym!r} needs rho parameters")
    return rho_image(rep, sym.index, params)


def inverse_params(rep: Rep, sym: GeneratorSymbol, params: RhoParams | None) -> RhoParams:
    """The parameters of rho^-1 for the inverse letter `sym`, named if there is none."""
    if params is None:
        raise ValueError(f"symbol {sym!r} needs rho parameters")
    inverse = params.inverse(rep.lam)
    if inverse is None:
        raise NonInvertibleError(f"rho_{sym.index} is not invertible here")
    return inverse


def evaluate_word(
    word, rep: Rep, params: RhoParams | None = None, images: dict | None = None
):
    """Product of the images of a word's symbols, left to right.

    `word` is a GeneratorWord, whose strand count must match the rep's, or a
    bare sequence of symbols such as the words inside an Expr.  Each distinct
    symbol's image is built once and kept in `images`, a symbol -> image dict
    that callers may share between words evaluated in the same rep at the same
    params.  The inverse parameters of `r<k>^-1` letters are computed at most
    once per call.
    """
    if isinstance(word, GeneratorWord):
        if word.n != rep.n:
            raise ValueError(f"word on n={word.n} evaluated in rep on n={rep.n}")
        word = word.symbols
    if images is None:
        images = {}
    out = inverse = None
    for sym in word:
        image = images.get(sym)
        if image is None:
            if sym.kind == RHO_INV and inverse is None:
                inverse = inverse_params(rep, sym, params)
            image = images[sym] = symbol_image(rep, sym, params, inverse)
        out = image if out is None else rep.mul(out, image)
    return rep.one() if out is None else out


def evaluate_expr(
    expr: Expr, rep: Rep, params: RhoParams | None = None, table: dict | None = None
):
    """Sum of coefficient times word product over the terms of `expr`.

    The products are handed to `rep.combine` as they are built.
    Without `table`, each word is an `evaluate_word` fold and only the
    symbols' images are kept, for the call.  `table` also keeps products:
    it maps words (symbol tuples) to their products in `rep` at `params`,
    and callers may share one between expressions evaluated there.  A word
    is looked up, or built from its longest stored prefix one symbol at a
    time, each new prefix stored, so a prefix is multiplied once per table.
    That pays where many short words share prefixes, as the registry's
    shapes do; a single expression's words share few.
    """
    if table is None:
        images = {}
        return rep.combine(
            (evaluate_word(word, rep, params, images), coeff)
            for word, coeff in expr.terms.items()
        )
    return rep.combine(_table_products(expr, rep, params, table))


def _table_products(expr: Expr, rep: Rep, params: RhoParams | None, table: dict):
    """(word product, coefficient) for each term of `expr`, through `table`."""
    inverse = None
    for word, coeff in expr.terms.items():
        k = len(word)
        while k and word[:k] not in table:
            k -= 1
        value = table[word[:k]] if k else None
        for j in range(k, len(word)):
            image = table.get(word[j : j + 1])
            if image is None:
                sym = word[j]
                if sym.kind == RHO_INV and inverse is None:
                    inverse = inverse_params(rep, sym, params)
                image = table[word[j : j + 1]] = symbol_image(rep, sym, params, inverse)
            value = image if value is None else rep.mul(value, image)
            table[word[: j + 1]] = value
        yield (rep.one() if value is None else value), coeff
