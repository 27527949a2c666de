"""Exact Gaussian rationals: the per-entry view of an exact matrix.

``GaussianRational`` holds an exact complex number as a pair of
``fractions.Fraction`` components, so every arithmetic result is reduced and
comparison is structural.  A ``Matrix`` stores Gaussian-integer grids over
one denominator and computes on them with plain ints; files, random draws,
zeros, identities and the generators go straight to those grids.  The two
crossings between a matrix and its entries live here too: the int parts of
an exact entry given as a Python scalar (:func:`entry_parts`, for
``Matrix(...)`` and ``Matrix.scale``) and the entries of exact grids
(:func:`grid_entries`, for ``Matrix.entries``).  This module, and
``fractions`` with it, loads only when code reads an exact matrix's
``entries``, or passes Python scalars to ``Matrix.exact``:
no CLI subcommand does.  The float backend is the built-in ``complex``,
validated by ``tags.finite_complex``.
"""

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"bool is not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class GaussianRational:
    """Complex number with rational real and imaginary parts.

    Immutable and hashable; all arithmetic is exact.  Integers and
    ``Fraction`` values coerce in mixed expressions, floats, strings and
    bools never do.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):  # copy and pickle: rebuild through __init__
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def _coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return GaussianRational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / denom,
            (self.im * other.re - self.re * other.im) / denom,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __abs__(self) -> float:
        # Float approximation; used only for display and tolerance scaling.
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF = GaussianRational(Fraction(1, 2))


# -- the per-entry view of an exact Matrix -------------------------------------


def entry_parts(value) -> tuple:
    """The ints ``(re_num, re_den, im_num, im_den)`` of an exact entry given
    as an int, a ``Fraction`` or a GaussianRational (``matrix`` refuses a
    bool first)."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator, 0, 1
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        return re.numerator, re.denominator, im.numerator, im.denominator
    raise TypeError(f"exact matrices take GaussianRational/int/Fraction entries, got {value!r}")


def grid_entries(re, im, d: int) -> tuple:
    """Row tuples of the entries ``(x + y i) / d`` of the exact grids
    ``(re, im, d)``, row-major."""
    return tuple(tuple(GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in zip(rr, ir))
                 for rr, ir in zip(re, im))
