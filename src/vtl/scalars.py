"""Exact arithmetic in quadratic extensions of the rationals.

A scalar is x + y*sqrt(D) with x, y, D rational.  D is fixed per value; values
with y = 0 are plain rationals and combine with any D.  If D is the square of
a rational the root is folded into the rational part on construction, so a
stored D is always a non-square and (x, y, D) triples compare componentwise.

The public constructor checks and normalises its input.  Arithmetic builds its
results through the trusted `QuadScalar._make`, which relies on the operands
already being normalised: rational parts are Fractions and a stored D is a
non-square or 0, so only a cancelled irrational part needs fixing up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError

RationalLike = Union[int, Fraction]

_F0 = Fraction(0)


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Return the non-negative rational square root of q, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class QuadScalar:
    __slots__ = ("x", "y", "D")

    def __init__(self, x: RationalLike, y: RationalLike = 0, D: RationalLike = 0):
        x = Fraction(x)
        y = Fraction(y)
        D = Fraction(D)
        if y:
            root = rational_sqrt(D)
            if root is not None:
                x, y, D = x + y * root, Fraction(0), Fraction(0)
        else:
            D = Fraction(0)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "D", D)

    @staticmethod
    def _make(x: Fraction, y: Fraction, D: Fraction) -> QuadScalar:
        """Trusted constructor for arithmetic results.

        x and y must be Fractions and D a stored discriminant (a non-square,
        or 0), so the re-wrap and the square-root test are skipped; a y that
        cancelled to 0 still resets D to 0.
        """
        out = _new(QuadScalar)
        _set_x(out, x)
        if y:
            _set_y(out, y)
            _set_D(out, D)
        else:
            _set_y(out, _F0)
            _set_D(out, _F0)
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def rational(cls, q: RationalLike) -> QuadScalar:
        return cls(Fraction(q))

    @classmethod
    def root(cls, D: RationalLike) -> QuadScalar:
        """sqrt(D) as a scalar (collapses to a rational when D is square)."""
        return cls(0, 1, D)

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def _join(self, other: QuadScalar) -> Fraction:
        if self.y == 0:
            return other.D
        if other.y == 0 or self.D == other.D:
            return self.D
        raise FieldMismatchError(
            f"cannot combine scalars over sqrt({self.D}) and sqrt({other.D})"
        )

    @staticmethod
    def _coerce(value) -> QuadScalar:
        if isinstance(value, QuadScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadScalar(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> QuadScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.y and not other.y:
            return _make(self.x + other.x, _F0, _F0)
        D = self._join(other)
        return _make(self.x + other.x, self.y + other.y, D)

    __radd__ = __add__

    def __neg__(self) -> QuadScalar:
        return _make(-self.x, -self.y, self.D)

    def __sub__(self, other) -> QuadScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QuadScalar:
        return -(self - other)

    def __mul__(self, other) -> QuadScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self.x, self.y
        ox, oy = other.x, other.y
        if not y and not oy:
            return _make(x * ox, _F0, _F0)
        D = self._join(other)
        if not y:
            return _make(x * ox, x * oy, D)
        if not oy:
            return _make(x * ox, y * ox, D)
        return _make(x * ox + y * oy * D, x * oy + y * ox, D)

    __rmul__ = __mul__

    def conjugate(self) -> QuadScalar:
        return _make(self.x, -self.y, self.D)

    def norm(self) -> Fraction:
        return self.x * self.x - self.y * self.y * self.D

    def inv(self) -> QuadScalar:
        """Multiplicative inverse via the field norm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        n = self.norm()
        # D non-square, so the norm of a nonzero value is nonzero.
        return _make(self.x / n, -self.y / n, self.D)

    def __truediv__(self, other) -> QuadScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> QuadScalar:
        return self._coerce(other) * self.inv()

    def __pow__(self, exponent: int) -> QuadScalar:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = QuadScalar(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.x == other.x and self.y == other.y and self.D == other.D

    def __hash__(self):
        return hash((self.x, self.y, self.D))

    def __bool__(self) -> bool:
        return not self.is_zero

    def approx(self) -> complex:
        """Float approximation; complex when D < 0."""
        if self.D >= 0:
            return complex(float(self.x) + float(self.y) * math.sqrt(float(self.D)))
        return complex(float(self.x), float(self.y) * math.sqrt(-float(self.D)))

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        root = f"sqrt({self.D})"
        if self.y == 1:
            tail = root
        elif self.y == -1:
            tail = f"-{root}"
        else:
            tail = f"{self.y}*{root}"
        if self.x == 0:
            return tail
        sign = "+" if self.y > 0 else "-"
        mag = tail.lstrip("-")
        return f"{self.x} {sign} {mag}"

    def __repr__(self) -> str:
        return f"QuadScalar({self.x!r}, {self.y!r}, {self.D!r})"

    def to_obj(self) -> dict:
        return {
            "x_num": self.x.numerator,
            "x_den": self.x.denominator,
            "y_num": self.y.numerator,
            "y_den": self.y.denominator,
            "D_num": self.D.numerator,
            "D_den": self.D.denominator,
        }


# The slots' own setters: they get past the immutability guard in
# `__setattr__` at about half the cost of `object.__setattr__`.
_new = object.__new__
_set_x = QuadScalar.x.__set__
_set_y = QuadScalar.y.__set__
_set_D = QuadScalar.D.__set__
_make = QuadScalar._make


ZERO = QuadScalar(0)
ONE = QuadScalar(1)


def as_scalar(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    return QuadScalar(Fraction(value))
