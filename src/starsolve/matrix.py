"""Dense matrices over Gaussian rationals or complex floats, with involution.

Matrices under conjugate-transpose or plain-transpose involution are the
rings with involution the solvers work in.  This module holds the
:class:`Matrix` type, the checks of each operation, and the dispatch to one
backend's arithmetic; and the Moore-Penrose inverse (by rank factorization
when exact, by complete orthogonal decomposition on floats).  Rectangular
matrices use the same type; only :class:`~starsolve.ring.MatrixRing`
insists on squareness.  Plain-transpose matrices have real entries, on
which the MP-inverse always exists.  The tags, the float tolerances and the
checks of values from outside live in :mod:`starsolve.tags`; the Penrose
checks, which only ``mp`` and the tests run, in :mod:`starsolve.penrose`.

Each backend's arithmetic lives in its own module, imported on first use,
so a process that works in one backend never compiles the other's: exact
matrices are Gaussian-integer grids over one denominator, whose arithmetic,
builders from outside data and conversion to floats live in
:mod:`starsolve.grids`, and whose fraction-free elimination (the only one)
lives in :mod:`starsolve.elimination`, loaded only by a run that inverts;
float matrices are complex entries, whose arithmetic lives in
:mod:`starsolve.floats` and whose orthogonal decomposition in
:mod:`starsolve.orthogonal`.  Exact zeros, identities and random draws are
built as grids too, so :mod:`starsolve.scalars` and ``fractions``, which
hold the per-entry view, load only when code reads an exact matrix's
``entries`` or passes Python scalars to :meth:`Matrix.exact`.

One checking rule on both backends: data from outside is checked once, by
``Matrix(...)`` (tags, shape and every entry; ``exact`` and ``floating`` only
work out the shape) or by :func:`starsolve.grids.from_grids` (int grids),
with ``from_parts`` of each backend module the one builder from coerced
entries; each operation checks its own arguments once before it picks a
backend; :func:`unchecked` builds every arithmetic result and copy as given,
never re-checked (a float overflow travels on as inf or NaN).

Two names defined elsewhere also resolve here, on first access, because the
benchmark harness (perfbench/) reaches them as ``matrix.*``:
:class:`~starsolve.ring.MatrixRing` and
:func:`~starsolve.draws.random_matrix`.
"""
from typing import Optional, Sequence

from .tags import (CONJUGATE_TRANSPOSE, EXACT, FLOAT, BackendMismatchError, ShapeMismatchError,
                   _check_header, _coerce_entry)


def _ops(backend: str):
    """The arithmetic of ``backend``, :mod:`starsolve.grids` (exact) or
    :mod:`starsolve.floats`, imported on first use, so that a process that
    works in one backend never compiles the other's."""
    if backend == EXACT:
        from . import grids as ops
    else:
        from . import floats as ops
    return ops


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
        parts = tuple(tuple(_coerce_entry(e, backend) for e in row) for row in entries)
        built = _ops(backend).from_parts(rows, cols, involution, parts)
        self._set(rows, cols, involution, backend, built._entries, built.grids)

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
        return _ops(backend).zeros(rows, cols, involution)

    @classmethod
    def identity(cls, n: int, involution: str = CONJUGATE_TRANSPOSE, backend: str = EXACT) -> "Matrix":
        _check_header(n, n, involution, backend)
        return _ops(backend).identity(n, involution)

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check_tags(self, other: "Matrix"):
        if self.backend != other.backend or self.involution != other.involution:
            raise BackendMismatchError(
                f"incompatible matrices: ({self.backend},{self.involution}) vs "
                f"({other.backend},{other.involution})")

    # -- arithmetic -------------------------------------------------------

    def _add(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        self._check_tags(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"{what}: {self.shape} vs {other.shape}")
        return _ops(self.backend).add(self, other, sign)

    def add(self, other: "Matrix") -> "Matrix":
        return self._add(other, 1, "add")

    def sub(self, other: "Matrix") -> "Matrix":
        return self._add(other, -1, "sub")

    def neg(self) -> "Matrix":
        return _ops(self.backend).neg(self)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_tags(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"mul: {self.shape} @ {other.shape}")
        return _ops(self.backend).mul(self, other)

    def star(self) -> "Matrix":
        return _ops(self.backend).star(self)

    def scale(self, scalar) -> "Matrix":
        """Multiply every entry by ``scalar``, real under the transpose involution."""
        return _ops(self.backend).scale(self, _coerce_entry(scalar, self.backend))

    def half(self) -> "Matrix":
        """Multiply every entry by one half (the central inverse of 2)."""
        return _ops(self.backend).half(self)

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
        :func:`~starsolve.tags.tolerance` gives on the exact backend), else
        within ``tol``."""
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
        return _ops(self.backend).to_float(self)

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


# -- inverses ---------------------------------------------------------------


def rank_factorization(m: Matrix):
    """Full-rank factorization ``m = F @ G`` of an exact matrix: F (rows x r)
    collects the pivot columns of ``m``, G (r x cols) is the nonzero part of
    the reduced row echelon form, r is the rank (0: empty factors)."""
    if m.backend != EXACT:
        raise ValueError("rank_factorization takes an exact matrix")
    from . import elimination  # the exact elimination: only a run that inverts loads it
    return elimination.rank_factorization(m)


def inverse(m: Matrix) -> Matrix:
    """Ordinary inverse of a square exact matrix; NotMpInvertibleError if singular."""
    if m.backend != EXACT:
        raise ValueError("inverse takes an exact matrix")
    if not m.is_square:
        raise ShapeMismatchError("inverse needs a square matrix")
    from . import elimination
    return elimination.inverse(m)


def mp_inverse(m: Matrix) -> Matrix:
    """Moore-Penrose inverse.

    Exact, by rank factorization ``m = F G`` of rank r: ``G* (F* m G*)^-1 F*``
    (Ben-Israel & Greville, 2003), ``(F* m)^-1 F*`` at full column rank.

    Float, by complete orthogonal decomposition
    (:func:`starsolve.orthogonal.mp_inverse`), which does not square cond(m) and
    takes the rank from pivot norms above tolerance(PIVOT_RTOL, m).
    NotMpInvertibleError if the inverse leaves the float range.
    """
    if m.backend != EXACT:
        from . import orthogonal  # the float decomposition: only a run that inverts loads it
        return orthogonal.mp_inverse(m)
    factor_f, factor_g, r = rank_factorization(m)
    if r == 0:
        return Matrix.zeros(m.cols, m.rows, m.involution, m.backend)
    f_star = factor_f.star()
    if r == m.cols:
        return inverse(f_star @ m) @ f_star
    g_star = factor_g.star()
    return g_star @ inverse(f_star @ m @ g_star) @ f_star


# -- names that moved ----------------------------------------------------------


def __getattr__(name):
    """``MatrixRing`` and ``random_matrix``, from their defining modules
    (PEP 562): the benchmark harness reaches them as ``matrix.*``."""
    if name == "MatrixRing":
        from .ring import MatrixRing as value
    elif name == "random_matrix":
        from .draws import random_matrix as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return value
