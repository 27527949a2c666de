"""The four Penrose equations, which define the Moore-Penrose inverse.

``mp`` reports the residual of each for the inverse it computed, and the
tests judge every MP-inverse by them; no other subcommand loads this module.
"""

from .matrix import Matrix
from .tags import RTOL, tolerance


def penrose_defects(a: Matrix, b: Matrix) -> list:
    """Differences ``aba - a``, ``bab - b``, ``(ab)* - ab``, ``(ba)* - ba``."""
    ab = a @ b
    ba = b @ a
    return [ab @ a - a, ba @ b - b, ab.star() - ab, ba.star() - ba]


def is_mp_inverse(a: Matrix, b: Matrix) -> bool:
    """True iff the pair ``(a, b)`` satisfies all four Penrose equations,
    each judged by :func:`~starsolve.tags.tolerance` over its own terms on
    floats."""
    tols = (tolerance(RTOL, (a, b, a), a), tolerance(RTOL, (b, a, b), b),
            tolerance(RTOL, (a, b)), tolerance(RTOL, (b, a)))
    return all(d.is_zero(tol) for d, tol in zip(penrose_defects(a, b), tols))
