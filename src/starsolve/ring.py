"""Abstract contract for unital rings with involution in which 2 is invertible.

Concrete rings implement the primitive operations; everything the solvers
need beyond those (Penrose checks, projection complements, hermitian and
skew parts) is derived here.  All operations are pure and all values are
treated as immutable, so rings are safe for unrestricted concurrent use.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional

Element = Any


class NotMpInvertibleError(Exception):
    """The element has no Moore-Penrose inverse (or none can be computed)."""


class StarRing(ABC):
    """Operations of a ring with involution ``*`` and invertible 2.

    Required laws, property-tested against the shipped realizations:

    * add/multiply are associative, multiply distributes over add,
      ``zero()``/``one()`` are the neutral elements;
    * ``(a + b)* = a* + b*``, ``(a b)* = b* a*``, ``(a*)* = a``, ``1* = 1``;
    * ``half_of(a) + half_of(a) = a`` and ``half_of(a b) = half_of(a) b
      = a half_of(b)`` (the inverse of 2 is central).

    ``half_of`` is a primitive rather than multiplication by an element 1/2
    so that rings need not expose any scalar embedding.
    """

    @abstractmethod
    def add(self, a: Element, b: Element) -> Element: ...

    @abstractmethod
    def negate(self, a: Element) -> Element: ...

    @abstractmethod
    def multiply(self, a: Element, b: Element) -> Element: ...

    @abstractmethod
    def star(self, a: Element) -> Element: ...

    @abstractmethod
    def zero(self) -> Element: ...

    @abstractmethod
    def one(self) -> Element: ...

    @abstractmethod
    def half_of(self, a: Element) -> Element: ...

    @abstractmethod
    def equals(self, a: Element, b: Element, tol: Optional[float] = None) -> bool:
        """Equality; ``tol`` is an absolute entrywise bound on approximate rings.

        Exact rings ignore ``tol``.  ``None`` selects the ring's default
        policy.
        """

    # -- optional hooks -------------------------------------------------

    def mp_inverse(self, a: Element) -> Element:
        """Moore-Penrose inverse of ``a``, when the ring can compute one."""
        raise NotMpInvertibleError(f"{type(self).__name__} does not compute MP-inverses")

    def max_abs(self, a: Element) -> Optional[float]:
        """Magnitude scale for tolerance policies; ``None`` on exact rings."""
        return None

    # -- derived operations ---------------------------------------------

    def subtract(self, a: Element, b: Element) -> Element:
        return self.add(a, self.negate(b))

    def is_zero(self, a: Element, tol: Optional[float] = None) -> bool:
        """Whether ``a`` equals the ring zero (within ``tol`` where approximate)."""
        return self.equals(a, self.zero(), tol)

    def penrose_defects(self, a: Element, b: Element) -> list[Element]:
        """Differences ``aba - a``, ``bab - b``, ``(ab)* - ab``, ``(ba)* - ba``."""
        ab = self.multiply(a, b)
        ba = self.multiply(b, a)
        return [
            self.subtract(self.multiply(ab, a), a),
            self.subtract(self.multiply(ba, b), b),
            self.subtract(self.star(ab), ab),
            self.subtract(self.star(ba), ba),
        ]

    def is_mp_inverse(self, a: Element, b: Element, tol: Optional[float] = None) -> bool:
        """True iff the pair ``(a, b)`` satisfies all four Penrose equations."""
        return all(self.is_zero(d, tol) for d in self.penrose_defects(a, b))

    def proj_complement_left(self, a: Element, a_dagger: Element) -> Element:
        """``1 - a a_dagger``: self-adjoint idempotent annihilating ``a`` on the left."""
        return self.subtract(self.one(), self.multiply(a, a_dagger))

    def proj_complement_right(self, a: Element, a_dagger: Element) -> Element:
        """``1 - a_dagger a``: self-adjoint idempotent annihilating ``a`` on the right."""
        return self.subtract(self.one(), self.multiply(a_dagger, a))

    def herm_part(self, a: Element) -> Element:
        """``a + a*``; always self-adjoint."""
        return self.add(a, self.star(a))

    def skew_part(self, a: Element) -> Element:
        """``a - a*``; its star is its negative."""
        return self.subtract(a, self.star(a))
