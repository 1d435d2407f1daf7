"""Braid-type combination rho_i = a + b e_i + c v_i and its parameters."""

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

