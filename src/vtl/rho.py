"""Braid-type combination rho_i = a + b e_i + c v_i and its parameters.

Because v_i^2 = 1, e_i^2 = lambda e_i and v_i e_i = e_i v_i = e_i, the span of
1, e_i and v_i is a commutative subalgebra, so rho_i^-1 lies in it too:

    rho_i^-1 = x + y e_i + z v_i,   x = a/(a^2 - c^2),   z = -c/(a^2 - c^2),
                                    y = -b/((a + c)(a + c + b lambda)).

It exists exactly when (a + c)(a - c)(a + c + b lambda) != 0.  Each factor
is rho_i's eigenvalue on an element that is nonzero in the diagram algebra
(n >= 2) and in the tensor model (d >= 2):

    rho_i (1 - v_i) = (a - c)(1 - v_i),    rho_i e_i = (a + c + b lambda) e_i,
    rho_i (lambda (1 + v_i) - 2 e_i) = (a + c)(lambda (1 + v_i) - 2 e_i),

so where a factor vanishes rho_i is a zero divisor, and elsewhere the product
with the formula above is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import QuadScalar, as_scalar


@dataclass(frozen=True)
class RhoParams:
    a: QuadScalar
    b: QuadScalar
    c: QuadScalar
    lam: QuadScalar

    @classmethod
    def make(cls, a, b, c, lam) -> RhoParams:
        a, b, c, lam = map(as_scalar, (a, b, c, lam))
        # Force a shared discriminant check up front.
        (a + b + c + lam)
        return cls(a, b, c, lam)

    @property
    def is_degenerate(self) -> bool:
        """b = 0 with a*c != 0: the mixed relation forces v_i = v_{i+1}."""
        return self.b.is_zero and not self.a.is_zero and not self.c.is_zero

    def inverse(self, lam) -> RhoParams | None:
        """(x, y, z) with rho_i^-1 = x + y e_i + z v_i at loop value `lam`.

        None where (a + c)(a - c)(a + c + b lam) = 0 and rho_i has no inverse.
        `lam` is the rep's loop value, which a matrix rep fixes at d; the
        result carries it as its own `lam`.
        """
        a, b, c, lam = self.a, self.b, self.c, as_scalar(lam)
        plus, minus = a + c, a - c
        loop = plus + b * lam
        if plus.is_zero or minus.is_zero or loop.is_zero:
            return None
        det = plus * minus
        return RhoParams(a / det, -b / (plus * loop), -c / det, lam)


def solve_ab(lam) -> tuple[QuadScalar, QuadScalar]:
    """Both roots of b^2 + lam*b + 1 = 0, i.e. b with a=1 making rho a braid.

    Returns (b_plus, b_minus) = -(lam -/+ sqrt(lam^2 - 4)) / 2 over the field
    with discriminant lam^2 - 4 (collapsing to rationals when it is square).
    """
    lam = as_scalar(lam)
    if not lam.is_rational:
        raise ValueError("lambda must be rational here")
    disc = lam.x * lam.x - 4
    root = QuadScalar(0, Fraction(1, 2), disc)
    half_lam = QuadScalar(Fraction(-1, 2)) * lam
    return half_lam + root, half_lam - root

