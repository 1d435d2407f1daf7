"""Evaluation of generator words and formal expressions in representations.

Two representations share one small duck-typed surface: the diagram algebra
itself (elements are AlgebraElement) and the tensor-space matrix model
(elements are DenseMatrix, with lambda = d).  Elements of both carry their
own linear arithmetic (`+`, `-`, `.scale(s)`, `.is_zero`), so a rep supplies
only what differs between the two: `one`, `zero`, `e`, `v`, `mul`, `invert`
and `witness`.

The image of `r<k>^-1` is built like that of `r<k>`, from the closed-form
parameters of `RhoParams.inverse` at the rep's own loop value.  A rep's
`invert` (a minimal-polynomial search in the diagram rep, Gauss-Jordan
elimination in the matrix rep) is the general inverse, and the oracle that
closed form is tested against.
"""

from __future__ import annotations

from .elements import (
    AlgebraElement,
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
from .words import E, RHO, RHO_INV, V, GeneratorSymbol, GeneratorWord


class DiagramRep:
    """The diagram algebra on n strands at a fixed loop value lambda."""

    kind = "diagram"

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

    def witness(self, x) -> dict | None:
        for m, c in x.terms():
            return {"matching": m.to_obj(), "coeff": c.to_obj()}
        return None


class MatrixRep:
    """Tensor representation on (C^d)^(x n); e_i and v_i act on sites i, i+1."""

    kind = "matrix"

    def __init__(self, n: int, d: int):
        from .tensorrep import RepConfig, perm_matrix, ptranspose_matrix, site_embed

        self.n = n
        self.d = d
        self.config = RepConfig(n=n, d=d)
        self.lam = as_scalar(d)
        self._dim = d**n
        self._e = {
            i: site_embed(ptranspose_matrix(d), i, self.config)
            for i in range(1, n)
        }
        self._v = {
            i: site_embed(perm_matrix(d), i, self.config) for i in range(1, n)
        }

    def one(self) -> DenseMatrix:
        return DenseMatrix.identity(self._dim)

    def zero(self) -> DenseMatrix:
        return DenseMatrix.zero(self._dim, self._dim)

    def e(self, i: int) -> DenseMatrix:
        return self._e[i]

    def v(self, i: int) -> DenseMatrix:
        return self._v[i]

    def mul(self, x, y):
        return x * y

    def invert(self, x):
        return invert(x)

    def witness(self, x) -> dict | None:
        for r, c, entry in x.nonzeros():
            return {"row": r, "col": c, "entry": entry.to_obj()}
        return None


Rep = DiagramRep | MatrixRep

DEFAULT_DIM = 2


def make_rep(kind: str, n: int, lam, dim: int | None = None) -> Rep:
    """The `kind` ("diagram" or "matrix") rep on n strands.

    The diagram rep takes the loop value `lam`; the matrix rep's loop value
    is its local dimension `dim`, DEFAULT_DIM when None.
    """
    if kind == "matrix":
        return MatrixRep(n, DEFAULT_DIM if dim is None else dim)
    return DiagramRep(n, lam)


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
