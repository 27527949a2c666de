"""The tags every matrix carries, the float tolerances, and the checks of
values from outside.

A :class:`~starsolve.matrix.Matrix` is tagged with its backend (exact
Gaussian rationals or complex floats) and its involution (conjugate
transpose, or plain transpose on real entries).  This module holds those
tags and the errors, checks and entry coercion every builder of a matrix
shares, and the one float zero-test rule (:func:`tolerance`); it imports
no other module of the package, so the CLI's parser reads the tags here
without loading the matrix code.
"""
import math
from typing import Optional

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)

CONJUGATE_TRANSPOSE = "conjugate_transpose"
TRANSPOSE = "transpose"
INVOLUTIONS = (CONJUGATE_TRANSPOSE, TRANSPOSE)

# Float tolerances; everything exact compares structurally and never uses them.
RTOL = 1e-9                  # zero tests of residuals, relative to their terms (see tolerance)
PIVOT_RTOL = 1e-12           # float rank: QR pivot norms above tolerance(PIVOT_RTOL, m)


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform."""


class BackendMismatchError(ValueError):
    """Operands disagree on scalar backend or involution tag."""


def finite_complex(value) -> complex:
    """Coerce a number to ``complex``, rejecting NaN, infinities and a
    modulus beyond the float range (which ``abs`` could not return)."""
    z = complex(value)
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise ValueError(f"non-finite float entry or modulus: {value!r}")
    return z


def _coerce_entry(value, backend):
    """A float entry as a finite ``complex``; an exact one as its parts
    ``(re_num, re_den, im_num, im_den)``."""
    if isinstance(value, bool):
        raise TypeError(f"bool is not a {backend} matrix entry")
    if backend == EXACT:
        # the per-entry view: scalars (and fractions) load with the first exact entry
        from .scalars import entry_parts
        return entry_parts(value)
    if isinstance(value, (int, float, complex)):
        return finite_complex(value)
    raise TypeError(f"float matrices take int/float/complex entries, got {value!r}")


def _check_header(rows: int, cols: int, involution: str, backend: str):
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if involution not in INVOLUTIONS:
        raise ValueError(f"unknown involution {involution!r}")
    if rows < 0 or cols < 0:
        raise ShapeMismatchError("negative dimension")


def _require_real(imaginary_parts):
    """Plain transpose is only a usable involution here on real matrices."""
    if any(imaginary_parts):
        raise ValueError("transpose involution requires all-real entries")


def tolerance(rtol: float, *terms) -> Optional[float]:
    """Absolute tolerance for the zero test of a residual made of ``terms``.

    The one float zero-test rule: ``rtol`` times the largest scale among the
    terms the residual is the difference of.  A term is a Matrix, scaled by
    its max abs entry, or a tuple of the factors of a product, scaled by the
    product of theirs.  Every identity checked here is homogeneous in its
    terms, so rescaling an instance does not change a verdict.  None on the
    exact backend, where zero means zero.
    """
    factors = [term if isinstance(term, tuple) else (term,) for term in terms]
    if factors[0][0].backend == EXACT:
        return None
    return rtol * max(math.prod(f.max_abs() for f in term) for term in factors)
