"""Exact arithmetic in quadratic extensions of the rationals.

A scalar is x + y*sqrt(D) with x, y, D rational.  D is fixed per value; values
with y = 0 are plain rationals and combine with any D.  If D is the square of
a rational the root is folded into the rational part on construction, so a
stored D is always a non-square and (x, y, D) triples compare componentwise.

Each rational part is stored as a reduced pair of ints (numerator, and a
positive denominator; zero is 0/1), so arithmetic runs on ints and `math.gcd`
alone, with the reductions of CPython's `Fraction._add` and `Fraction._mul`.
`.x`, `.y` and `.D` read back as Fractions.

The public constructor checks and normalises its input.  Arithmetic builds its
results through the trusted `_make`, which relies on the operands already
being normalised: every pair is reduced and a stored D is a non-square or 0,
so only a cancelled irrational part needs fixing up.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError

RationalLike = Union[int, Fraction]

_gcd = math.gcd


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Return the non-negative rational square root of q, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _qadd(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da + nb/db, reduced; the operands must be reduced."""
    if da == db:
        if da == 1:
            return na + nb, 1
        t = na + nb
        g = _gcd(t, da)
        return (t, da) if g == 1 else (t // g, da // g)
    g = _gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _qmul(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """(na/da) * (nb/db), reduced; the operands must be reduced."""
    if da == 1 and db == 1:
        return na * nb, 1
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return na * nb, da * db


class QuadScalar:
    __slots__ = ("xn", "xd", "yn", "yd", "Dn", "Dd")

    def __new__(cls, x: RationalLike, y: RationalLike = 0, D: RationalLike = 0):
        x = Fraction(x)
        y = Fraction(y)
        D = Fraction(D)
        if y:
            root = rational_sqrt(D)
            if root is not None:
                x, y = x + y * root, Fraction(0)
        return _make(x.numerator, x.denominator, y.numerator, y.denominator,
                     D.numerator, D.denominator)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadScalar is immutable")

    def __reduce__(self):
        return QuadScalar, (self.x, self.y, self.D)

    @classmethod
    def root(cls, D: RationalLike) -> QuadScalar:
        """sqrt(D) as a scalar (collapses to a rational when D is square)."""
        return cls(0, 1, D)

    @property
    def x(self) -> Fraction:
        return Fraction(self.xn, self.xd)

    @property
    def y(self) -> Fraction:
        return Fraction(self.yn, self.yd)

    @property
    def D(self) -> Fraction:
        return Fraction(self.Dn, self.Dd)

    @property
    def is_rational(self) -> bool:
        return not self.yn

    @property
    def is_zero(self) -> bool:
        return not self.xn and not self.yn

    def _join(self, other: QuadScalar) -> tuple[int, int]:
        """The (numerator, denominator) of the discriminant both share."""
        if not self.yn:
            return other.Dn, other.Dd
        if not other.yn or (self.Dn == other.Dn and self.Dd == other.Dd):
            return self.Dn, self.Dd
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
        if other.__class__ is not QuadScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        xn, xd = _qadd(self.xn, self.xd, other.xn, other.xd)
        if not self.yn and not other.yn:
            return _make(xn, xd, 0, 1, 0, 1)
        Dn, Dd = self._join(other)
        yn, yd = _qadd(self.yn, self.yd, other.yn, other.yd)
        return _make(xn, xd, yn, yd, Dn, Dd)

    __radd__ = __add__

    def __neg__(self) -> QuadScalar:
        return _make(-self.xn, self.xd, -self.yn, self.yd, self.Dn, self.Dd)

    def __sub__(self, other) -> QuadScalar:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> QuadScalar:
        return -(self - other)

    def __mul__(self, other) -> QuadScalar:
        if other.__class__ is not QuadScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        xn, xd, yn, yd = self.xn, self.xd, self.yn, self.yd
        oxn, oxd, oyn, oyd = other.xn, other.xd, other.yn, other.yd
        rn, rd = _qmul(xn, xd, oxn, oxd)
        if not yn and not oyn:
            return _make(rn, rd, 0, 1, 0, 1)
        Dn, Dd = self._join(other)
        if not yn:
            sn, sd = _qmul(xn, xd, oyn, oyd)
        elif not oyn:
            sn, sd = _qmul(yn, yd, oxn, oxd)
        else:
            pn, pd = _qmul(yn, yd, oyn, oyd)
            pn, pd = _qmul(pn, pd, Dn, Dd)
            rn, rd = _qadd(rn, rd, pn, pd)
            sn, sd = _qmul(xn, xd, oyn, oyd)
            tn, td = _qmul(yn, yd, oxn, oxd)
            sn, sd = _qadd(sn, sd, tn, td)
        return _make(rn, rd, sn, sd, Dn, Dd)

    __rmul__ = __mul__

    def conjugate(self) -> QuadScalar:
        return _make(self.xn, self.xd, -self.yn, self.yd, self.Dn, self.Dd)

    def norm(self) -> Fraction:
        x, y = self.x, self.y
        return x * x - y * y * self.D

    def inv(self) -> QuadScalar:
        """Multiplicative inverse via the field norm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        n = self.norm()
        # D non-square, so the norm of a nonzero value is nonzero.
        x, y = self.x / n, -self.y / n
        return _make(x.numerator, x.denominator, y.numerator, y.denominator,
                     self.Dn, self.Dd)

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
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if other.__class__ is not QuadScalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self.xn == other.xn
            and self.xd == other.xd
            and self.yn == other.yn
            and self.yd == other.yd
            and self.Dn == other.Dn
            and self.Dd == other.Dd
        )

    def __hash__(self):
        return hash((self.xn, self.xd, self.yn, self.yd, self.Dn, self.Dd))

    def __bool__(self) -> bool:
        return not self.is_zero

    def approx(self) -> complex:
        """Float approximation; complex when D < 0."""
        # int / int rounds exactly as float(Fraction) does
        x, y, D = self.xn / self.xd, self.yn / self.yd, self.Dn / self.Dd
        if D >= 0:
            return complex(x + y * math.sqrt(D))
        return complex(x, y * math.sqrt(-D))

    def __str__(self) -> str:
        if not self.yn:
            return str(self.x)
        y = self.y
        root = f"sqrt({self.D})"
        if y == 1:
            tail = root
        elif y == -1:
            tail = f"-{root}"
        else:
            tail = f"{y}*{root}"
        if not self.xn:
            return tail
        sign = "+" if y > 0 else "-"
        mag = tail.lstrip("-")
        return f"{self.x} {sign} {mag}"

    def __repr__(self) -> str:
        return f"QuadScalar({self.x!r}, {self.y!r}, {self.D!r})"

    def to_obj(self) -> dict:
        return {
            "x_num": self.xn,
            "x_den": self.xd,
            "y_num": self.yn,
            "y_den": self.yd,
            "D_num": self.Dn,
            "D_den": self.Dd,
        }


# The slots' own setters: they get past the immutability guard in
# `__setattr__` at about half the cost of `object.__setattr__`.
_new = object.__new__
_set_xn = QuadScalar.xn.__set__
_set_xd = QuadScalar.xd.__set__
_set_yn = QuadScalar.yn.__set__
_set_yd = QuadScalar.yd.__set__
_set_Dn = QuadScalar.Dn.__set__
_set_Dd = QuadScalar.Dd.__set__


def _make(xn: int, xd: int, yn: int, yd: int, Dn: int, Dd: int) -> QuadScalar:
    """Trusted constructor: `QuadScalar(...)` after its checks, and arithmetic.

    Every (numerator, denominator) pair must be reduced with a positive
    denominator and (Dn, Dd) a stored discriminant (a non-square, or 0/1);
    nothing is checked.  A y that cancelled to 0 still resets D to 0.
    """
    out = _new(QuadScalar)
    _set_xn(out, xn)
    _set_xd(out, xd)
    if yn:
        _set_yn(out, yn)
        _set_yd(out, yd)
        _set_Dn(out, Dn)
        _set_Dd(out, Dd)
    else:
        _set_yn(out, 0)
        _set_yd(out, 1)
        _set_Dn(out, 0)
        _set_Dd(out, 1)
    return out


ZERO = QuadScalar(0)
ONE = QuadScalar(1)


def as_scalar(value) -> QuadScalar:
    if isinstance(value, QuadScalar):
        return value
    return QuadScalar(Fraction(value))
