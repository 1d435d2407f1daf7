"""Evaluation of generator words and formal expressions in representations.

Two representations share one small duck-typed surface: the diagram algebra
itself (elements are AlgebraElement) and the tensor-space matrix model
(elements are DenseMatrix, with lambda = d).
"""

from __future__ import annotations

from .elements import (
    AlgebraElement,
    e_element,
    element_add,
    element_inverse,
    element_multiply,
    element_scale,
    element_sub,
    identity_element,
    v_element,
)
from .errors import NonInvertibleError
from .expressions import Expr
from .linalg import DenseMatrix, invert
from .rho import RhoParams
from .scalars import QuadScalar, as_scalar
from .words import E, RHO, RHO_INV, V, GeneratorSymbol, GeneratorWord


class DiagramRep:
    """The diagram algebra on n strands at a fixed loop value lambda."""

    kind = "diagram"

    def __init__(self, n: int, lam):
        self.n = n
        self.lam = as_scalar(lam)

    def one(self) -> AlgebraElement:
        return identity_element(self.n)

    def zero(self) -> AlgebraElement:
        return AlgebraElement.zero(self.n)

    def e(self, i: int) -> AlgebraElement:
        return e_element(i, self.n)

    def v(self, i: int) -> AlgebraElement:
        return v_element(i, self.n)

    def mul(self, x, y):
        return element_multiply(x, y, self.lam)

    def add(self, x, y):
        return element_add(x, y)

    def sub(self, x, y):
        return element_sub(x, y)

    def scale(self, s, x):
        return element_scale(s, x)

    def is_zero(self, x) -> bool:
        return x.is_zero

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

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def scale(self, s, x):
        return x.scale(s)

    def is_zero(self, x) -> bool:
        return x.is_zero

    def invert(self, x):
        return invert(x)

    def witness(self, x) -> dict | None:
        for r, c, entry in x.nonzeros():
            return {"row": r, "col": c, "entry": entry.to_obj()}
        return None


Rep = DiagramRep | MatrixRep


def rho_image(rep: Rep, i: int, params: RhoParams):
    out = rep.scale(params.a, rep.one())
    out = rep.add(out, rep.scale(params.b, rep.e(i)))
    return rep.add(out, rep.scale(params.c, rep.v(i)))


def symbol_image(rep: Rep, sym: GeneratorSymbol, params: RhoParams | None = None):
    if sym.kind == E:
        return rep.e(sym.index)
    if sym.kind == V:
        return rep.v(sym.index)
    if params is None:
        raise ValueError(f"symbol {sym!r} needs rho parameters")
    image = rho_image(rep, sym.index, params)
    if sym.kind == RHO:
        return image
    inv = rep.invert(image)
    if inv is None:
        raise NonInvertibleError(f"rho_{sym.index} is not invertible here")
    return inv


def evaluate_word(word: GeneratorWord, rep: Rep, params: RhoParams | None = None):
    if word.n != rep.n:
        raise ValueError(f"word on n={word.n} evaluated in rep on n={rep.n}")
    out = rep.one()
    for sym in word.symbols:
        out = rep.mul(out, symbol_image(rep, sym, params))
    return out

def evaluate_symbols(symbols, rep: Rep, params: RhoParams | None = None):
    out = rep.one()
    for sym in symbols:
        out = rep.mul(out, symbol_image(rep, sym, params))
    return out


def evaluate_expr(expr: Expr, rep: Rep, params: RhoParams | None = None):
    total = rep.zero()
    for word, coeff in expr.terms.items():
        value = evaluate_symbols(word, rep, params)
        total = rep.add(total, rep.scale(coeff, value))
    return total


def scalar_to_identity(rep: Rep, s: QuadScalar):
    return rep.scale(s, rep.one())
