"""Dense matrices over Gaussian rationals or complex floats, with involution.

Matrices under conjugate-transpose or plain-transpose involution are the
rings with involution the solvers work in.  This module holds the
:class:`Matrix` type, the checks of every value and operation, and the
dispatch to one backend's arithmetic; the Moore-Penrose inverse (by rank
factorization when exact, by complete orthogonal decomposition on floats)
and the Penrose checks.  Rectangular matrices use the same type; only
:class:`~starsolve.ring.MatrixRing` insists on squareness.  Plain-transpose
matrices have real entries, on which the MP-inverse always exists.

Each backend's arithmetic lives in its own module, imported on first use,
so a process that works in one backend never compiles the other's: exact
matrices are Gaussian-integer grids over one denominator, whose arithmetic,
fraction-free elimination (the only one), builders from outside data and
conversion to floats live in :mod:`starsolve.grids`; float matrices are
complex entries, whose arithmetic and decomposition live in
:mod:`starsolve.floats`.  Exact zeros, identities and random draws are built
as grids too, so :mod:`starsolve.scalars` and ``fractions``, which hold the
per-entry view, load only when code reads an exact matrix's ``entries`` or
passes Python scalars to :meth:`Matrix.exact`.

One checking rule on both backends: data from outside is checked once, by
``Matrix(...)`` (tags, shape and every entry; ``exact`` and ``floating`` only
work out the shape) or by :func:`starsolve.grids.from_grids` (int grids),
with :func:`starsolve.grids.from_parts` the one builder of exact entry
parts; each operation checks its own arguments once before it picks a
backend; :func:`unchecked` builds every arithmetic result and copy as given,
never re-checked (a float overflow travels on as inf or NaN).

Two names defined elsewhere also resolve here, on first access, because the
benchmark harness (perfbench/) reaches them as ``matrix.*``:
:class:`~starsolve.ring.MatrixRing` and
:func:`~starsolve.solvers.random_matrix`.
"""
import math
from itertools import chain
from typing import Optional, Sequence

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


def _ops(backend: str):
    """The arithmetic of ``backend``, :mod:`starsolve.grids` (exact) or
    :mod:`starsolve.floats`, imported on first use, so that a process that
    works in one backend never compiles the other's."""
    if backend == EXACT:
        from . import grids as ops
    else:
        from . import floats as ops
    return ops


def _require_real(imaginary_parts):
    """Plain transpose is only a usable involution here on real matrices."""
    if any(imaginary_parts):
        raise ValueError("transpose involution requires all-real entries")


class Matrix:
    """Immutable dense rows x cols matrix with involution and backend tags.

    An exact matrix is stored as ``grids = (re, im, d)``, entry
    ``(re + im i) / d`` in lowest terms (see :mod:`starsolve.grids`), and
    builds its ``GaussianRational`` entries on first use; a float matrix has
    ``grids`` None.  Hashable; two matrices are equal when their shapes,
    values and tags are.
    """

    __slots__ = ("rows", "cols", "involution", "backend", "_entries", "grids")

    rows: int
    cols: int
    involution: str
    backend: str

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence],
                 involution: str = CONJUGATE_TRANSPOSE, backend: str = EXACT):
        _check_header(rows, cols, involution, backend)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeMismatchError("entry grid does not match declared shape")
        grid = tuple(tuple(_coerce_entry(e, backend) for e in row) for row in entries)
        if backend == EXACT:
            self._set(rows, cols, involution, EXACT, None,
                      _ops(EXACT).from_parts(rows, cols, involution, grid).grids)
            return
        if involution == TRANSPOSE:
            _require_real(z.imag for z in chain.from_iterable(grid))
        self._set(rows, cols, involution, FLOAT, grid, None)

    def _set(self, *values):
        for name, value in zip(Matrix.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    @property
    def entries(self) -> tuple:
        """Row tuples of the entries, row-major."""
        if self._entries is None:
            from .scalars import grid_entries
            object.__setattr__(self, "_entries", grid_entries(*self.grids))
        return self._entries

    def _key(self) -> tuple:
        data = self._entries if self.grids is None else self.grids
        return (self.rows, self.cols, data, self.involution, self.backend)

    def __eq__(self, other):
        if other.__class__ is not Matrix:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):  # copy and pickle: the same values, inf and NaN included
        return unchecked, (self.rows, self.cols, self.involution, self.backend,
                           self._entries if self.grids is None else None, self.grids)

    # -- construction ---------------------------------------------------

    @classmethod
    def exact(cls, rows: Sequence[Sequence], involution: str = CONJUGATE_TRANSPOSE) -> "Matrix":
        """Exact matrix from nested sequences of GaussianRational/int/Fraction."""
        return cls(len(rows), len(rows[0]) if rows else 0, rows, involution, EXACT)

    @classmethod
    def floating(cls, rows: Sequence[Sequence], involution: str = CONJUGATE_TRANSPOSE) -> "Matrix":
        """Float matrix from nested sequences of numbers; NaN/Inf rejected."""
        return cls(len(rows), len(rows[0]) if rows else 0, rows, involution, FLOAT)

    @classmethod
    def zeros(cls, rows: int, cols: int, involution: str = CONJUGATE_TRANSPOSE,
              backend: str = EXACT) -> "Matrix":
        _check_header(rows, cols, involution, backend)
        if backend == EXACT:
            zero = ((0,) * cols,) * rows
            return unchecked(rows, cols, involution, EXACT, None, (zero, zero, 1))
        return unchecked(rows, cols, involution, FLOAT, ((complex(0.0),) * cols,) * rows)

    @classmethod
    def identity(cls, n: int, involution: str = CONJUGATE_TRANSPOSE, backend: str = EXACT) -> "Matrix":
        _check_header(n, n, involution, backend)
        if backend == EXACT:
            one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            return unchecked(n, n, involution, EXACT, None, (one, ((0,) * n,) * n, 1))
        grid = tuple(tuple(complex(i == j) for j in range(n)) for i in range(n))
        return unchecked(n, n, involution, FLOAT, grid)

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def _check_tags(self, other: "Matrix"):
        if self.backend != other.backend or self.involution != other.involution:
            raise BackendMismatchError(
                f"incompatible matrices: ({self.backend},{self.involution}) vs "
                f"({other.backend},{other.involution})")

    # -- arithmetic -------------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        self._check_tags(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"add: {self.shape} vs {other.shape}")
        return _ops(self.backend).add(self, other, 1)

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_tags(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"sub: {self.shape} vs {other.shape}")
        return _ops(self.backend).add(self, other, -1)

    def neg(self) -> "Matrix":
        if self.backend == EXACT:
            return _ops(EXACT).times(self, -1, 0, 1)
        return _ops(FLOAT).neg(self)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_tags(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"mul: {self.shape} @ {other.shape}")
        return _ops(self.backend).mul(self, other)

    def star(self) -> "Matrix":
        return _ops(self.backend).star(self)

    def scale(self, scalar) -> "Matrix":
        s = _coerce_entry(scalar, self.backend)
        if self.backend == EXACT:  # from_parts checks the transpose rule
            ((u,),), ((v,),), e = _ops(EXACT).from_parts(1, 1, self.involution, ((s,),)).grids
            return _ops(EXACT).times(self, u, v, e)
        if self.involution == TRANSPOSE:
            _require_real((s.imag,))
        return _ops(FLOAT).scale(self, s)

    def half(self) -> "Matrix":
        """Multiply every entry by one half (the central inverse of 2)."""
        if self.backend == EXACT:
            return _ops(EXACT).times(self, 1, 0, 2)
        return _ops(FLOAT).half(self)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __matmul__(self, other):
        return self.mul(other)

    # -- comparison and measures -------------------------------------------

    def max_abs(self) -> float:
        """The largest |entry| (0.0 when empty); NaN when any entry is NaN,
        which ``max`` alone would skip unless it came first."""
        return _ops(self.backend).max_abs(self)

    def is_zero(self, tol: Optional[float] = None) -> bool:
        """Every entry is zero: exactly when ``tol`` is None (what
        :func:`tolerance` gives on the exact backend), else within ``tol``."""
        if tol is None:
            return _ops(self.backend).is_zero(self)
        return self.max_abs() <= tol

    # -- blocks and conversion ----------------------------------------------

    def block(self, row0: int, col0: int, rows: int, cols: int) -> "Matrix":
        if min(row0, col0, rows, cols) < 0 or row0 + rows > self.rows or col0 + cols > self.cols:
            raise ShapeMismatchError("block out of range")
        return _ops(self.backend).block(self, row0, col0, rows, cols)

    def paste(self, row0: int, col0: int, sub: "Matrix") -> "Matrix":
        """New matrix with ``sub`` written at offset (row0, col0)."""
        self._check_tags(sub)
        if min(row0, col0) < 0 or row0 + sub.rows > self.rows or col0 + sub.cols > self.cols:
            raise ShapeMismatchError("paste out of range")
        return _ops(self.backend).paste(self, row0, col0, sub)

    def to_float(self) -> "Matrix":
        return self if self.backend == FLOAT else _ops(EXACT).to_float(self)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols} {self.backend}/{self.involution}]({body})"


def unchecked(rows: int, cols: int, involution: str, backend: str, entries,
              grids=None) -> Matrix:
    """The rows x cols matrix of a float ``entries`` grid or of exact
    ``grids``, built as given: the constructor of every arithmetic result,
    whose operation has checked its operands and arguments."""
    m = object.__new__(Matrix)
    m._set(rows, cols, involution, backend, entries, grids)
    return m


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


# -- inverses ---------------------------------------------------------------


def rank_factorization(m: Matrix):
    """Full-rank factorization ``m = F @ G`` of an exact matrix: F (rows x r)
    collects the pivot columns of ``m``, G (r x cols) is the nonzero part of
    the reduced row echelon form, r is the rank (0: empty factors)."""
    if m.backend != EXACT:
        raise ValueError("rank_factorization takes an exact matrix")
    return _ops(EXACT).rank_factorization(m)


def inverse(m: Matrix) -> Matrix:
    """Ordinary inverse of a square exact matrix; NotMpInvertibleError if singular."""
    if m.backend != EXACT:
        raise ValueError("inverse takes an exact matrix")
    if not m.is_square:
        raise ShapeMismatchError("inverse needs a square matrix")
    return _ops(EXACT).inverse(m)


def mp_inverse(m: Matrix) -> Matrix:
    """Moore-Penrose inverse.

    Exact, by rank factorization ``m = F G`` of rank r: ``G* (F* m G*)^-1 F*``
    (Ben-Israel & Greville, 2003), ``(F* m)^-1 F*`` at full column rank.

    Float, by complete orthogonal decomposition
    (:func:`starsolve.floats.mp_inverse`), which does not square cond(m) and
    takes the rank from pivot norms above tolerance(PIVOT_RTOL, m).
    NotMpInvertibleError if the inverse leaves the float range.
    """
    if m.backend != EXACT:
        return _ops(FLOAT).mp_inverse(m)
    factor_f, factor_g, r = rank_factorization(m)
    if r == 0:
        return Matrix.zeros(m.cols, m.rows, m.involution, m.backend)
    f_star = factor_f.star()
    if r == m.cols:
        return inverse(f_star @ m) @ f_star
    g_star = factor_g.star()
    return g_star @ inverse(f_star @ m @ g_star) @ f_star


def penrose_defects(a: Matrix, b: Matrix) -> list:
    """Differences ``aba - a``, ``bab - b``, ``(ab)* - ab``, ``(ba)* - ba``."""
    ab = a @ b
    ba = b @ a
    return [ab @ a - a, ba @ b - b, ab.star() - ab, ba.star() - ba]


def is_mp_inverse(a: Matrix, b: Matrix) -> bool:
    """True iff the pair ``(a, b)`` satisfies all four Penrose equations,
    each judged by :func:`tolerance` over its own terms on floats."""
    tols = (tolerance(RTOL, (a, b, a), a), tolerance(RTOL, (b, a, b), b),
            tolerance(RTOL, (a, b)), tolerance(RTOL, (b, a)))
    return all(d.is_zero(tol) for d, tol in zip(penrose_defects(a, b), tols))


# -- names that moved ----------------------------------------------------------


def __getattr__(name):
    """``MatrixRing`` and ``random_matrix``, from their defining modules
    (PEP 562): the benchmark harness reaches them as ``matrix.*``."""
    if name == "MatrixRing":
        from .ring import MatrixRing as value
    elif name == "random_matrix":
        from .solvers import random_matrix as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return value
