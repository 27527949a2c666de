"""Dense matrices over Gaussian rationals or complex floats, with involution.

Matrices under conjugate-transpose or plain-transpose involution are the
rings with involution the solvers work in.  This module holds their
arithmetic, the float Gauss-Jordan elimination (float rank factorization
and inverse reduce through it), the rank-factorization route to the
Moore-Penrose inverse, and the Penrose checks.  Rectangular
matrices use the same type; only :class:`MatrixRing` insists on squareness.

An exact matrix is held as Gaussian-integer grids over one denominator;
its arithmetic and its fraction-free elimination live in
:mod:`starsolve.grids`, which a float-only process never loads.

Plain-transpose matrices are restricted to real entries at construction so
that the core ``F* m G*`` of the MP-inverse is always invertible.

One checking rule on both backends: the validating constructors check data
from outside once, each operation checks its own arguments once before it
picks a backend, and :func:`unchecked` builds every arithmetic result as
given, never re-checked (a float overflow travels on as inf or NaN).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from .ring import NotMpInvertibleError
from .scalars import GR_ONE, GR_ZERO, GaussianRational, finite_complex

EXACT = "exact"
FLOAT = "float"
BACKENDS = (EXACT, FLOAT)

CONJUGATE_TRANSPOSE = "conjugate_transpose"
TRANSPOSE = "transpose"
INVOLUTIONS = (CONJUGATE_TRANSPOSE, TRANSPOSE)

# Float tolerances; everything exact compares structurally and never uses them.
RTOL = 1e-9                  # zero tests of residuals, relative to their terms (see tolerance)
PIVOT_RTOL = 1e-12           # elimination pivot threshold: tolerance(PIVOT_RTOL, m)
_FLOAT_REFINE_STEPS = 2      # Newton polish of the float MP-inverse


class ShapeMismatchError(ValueError):
    """Operand shapes do not conform."""


class BackendMismatchError(ValueError):
    """Operands disagree on scalar backend or involution tag."""


def _zero_scalar(backend):
    return GR_ZERO if backend == EXACT else complex(0.0)


def _one_scalar(backend):
    return GR_ONE if backend == EXACT else complex(1.0)


def _coerce_entry(value, backend):
    if isinstance(value, bool):
        raise TypeError(f"bool is not a {backend} matrix entry")
    if backend == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"exact matrices take GaussianRational/int/Fraction entries, got {value!r}")
    if isinstance(value, (int, float, complex)):
        return finite_complex(value)
    raise TypeError(f"float matrices take int/float/complex entries, got {value!r}")


def _grid_ops():
    """The exact arithmetic, :mod:`starsolve.grids`, imported on first use,
    so that a float-only process never compiles it."""
    from . import grids
    return grids


def _require_real(values, backend):
    """Plain transpose is only a usable involution here on real matrices."""
    if any((v.im if backend == EXACT else v.imag) != 0 for v in values):
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

    def __init__(self, rows: int, cols: int, entries: tuple,
                 involution: str = CONJUGATE_TRANSPOSE, backend: str = EXACT):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}")
        if involution not in INVOLUTIONS:
            raise ValueError(f"unknown involution {involution!r}")
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("negative dimension")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeMismatchError("entry grid does not match declared shape")
        if involution == TRANSPOSE:
            _require_real(chain.from_iterable(entries), backend)
        self._set(rows, cols, involution, backend, entries,
                  _grid_ops().from_entries(entries) if backend == EXACT else None)

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
            re, im, d = self.grids
            object.__setattr__(self, "_entries", tuple(
                tuple(GaussianRational(Fraction(x, d), Fraction(y, d)) for x, y in zip(rr, ir))
                for rr, ir in zip(re, im)))
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

    def __reduce__(self):  # copy and pickle: rebuild through __init__
        return Matrix, (self.rows, self.cols, self.entries, self.involution, self.backend)

    # -- construction ---------------------------------------------------

    @classmethod
    def exact(cls, rows: Sequence[Sequence], involution: str = CONJUGATE_TRANSPOSE) -> "Matrix":
        """Exact matrix from nested sequences of GaussianRational/int/Fraction."""
        grid = tuple(tuple(_coerce_entry(e, EXACT) for e in row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return cls(nrows, ncols, grid, involution, EXACT)

    @classmethod
    def floating(cls, rows: Sequence[Sequence], involution: str = CONJUGATE_TRANSPOSE) -> "Matrix":
        """Float matrix from nested sequences of numbers; NaN/Inf rejected."""
        grid = tuple(tuple(_coerce_entry(e, FLOAT) for e in row) for row in rows)
        nrows = len(grid)
        ncols = len(grid[0]) if nrows else 0
        return cls(nrows, ncols, grid, involution, FLOAT)

    @classmethod
    def zeros(cls, rows: int, cols: int, involution: str = CONJUGATE_TRANSPOSE,
              backend: str = EXACT) -> "Matrix":
        z = _zero_scalar(backend)
        return cls(rows, cols, tuple((z,) * cols for _ in range(rows)), involution, backend)

    @classmethod
    def identity(cls, n: int, involution: str = CONJUGATE_TRANSPOSE, backend: str = EXACT) -> "Matrix":
        z, o = _zero_scalar(backend), _one_scalar(backend)
        grid = tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))
        return cls(n, n, grid, involution, backend)

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def _like(self, grid) -> "Matrix":
        return unchecked(self.rows, self.cols, self.involution, self.backend, grid)

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
        if self.backend == EXACT:
            return _grid_ops().add(self, other, 1)
        grid = tuple(tuple(a + b for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return self._like(grid)

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_tags(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"sub: {self.shape} vs {other.shape}")
        if self.backend == EXACT:
            return _grid_ops().add(self, other, -1)
        grid = tuple(tuple(a - b for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return self._like(grid)

    def neg(self) -> "Matrix":
        if self.backend == EXACT:
            return _grid_ops().times(self, -1, 0, 1)
        return self._like(tuple(tuple(-a for a in row) for row in self.entries))

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_tags(other)
        if self.cols != other.rows:
            raise ShapeMismatchError(f"mul: {self.shape} @ {other.shape}")
        if self.backend == EXACT:
            return _grid_ops().mul(self, other)
        zero = _zero_scalar(self.backend)
        ocols = other.cols
        right = other.entries
        out = []
        for lrow in self.entries:
            orow = [zero] * ocols
            for k in range(self.cols):
                lik = lrow[k]
                if not lik:
                    continue
                rrow = right[k]
                for j in range(ocols):
                    orow[j] = orow[j] + lik * rrow[j]
            out.append(tuple(orow))
        return unchecked(self.rows, ocols, self.involution, self.backend, tuple(out))

    def star(self) -> "Matrix":
        if self.backend == EXACT:
            return _grid_ops().star(self)
        # zip(*rows) yields the columns; with no rows there is nothing to zip.
        cols = zip(*self.entries) if self.rows else ((),) * self.cols
        if self.involution == CONJUGATE_TRANSPOSE:
            grid = tuple(tuple(e.conjugate() for e in col) for col in cols)
        else:
            grid = tuple(cols)
        return unchecked(self.cols, self.rows, self.involution, self.backend, grid)

    def scale(self, scalar) -> "Matrix":
        s = _coerce_entry(scalar, self.backend)
        if self.involution == TRANSPOSE:
            _require_real((s,), self.backend)
        if self.backend == EXACT:
            ops = _grid_ops()
            ((u,),), ((v,),), e = ops.from_entries(((s,),))
            return ops.times(self, u, v, e)
        return self._like(tuple(tuple(s * a for a in row) for row in self.entries))

    def half(self) -> "Matrix":
        """Multiply every entry by one half (the central inverse of 2)."""
        if self.backend == EXACT:
            return _grid_ops().times(self, 1, 0, 2)
        return self._like(tuple(tuple(0.5 * a for a in row) for row in self.entries))

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
        if self.backend == EXACT:
            # x / d rounds correctly, as float(Fraction) does.
            re, im, d = self.grids
            values = [math.hypot(x / d, y / d) for rr, ir in zip(re, im)
                      for x, y in zip(rr, ir)]
        else:
            values = [abs(e) for row in self.entries for e in row]
        if any(map(math.isnan, values)):
            return math.nan
        return max(values, default=0.0)

    def equals(self, other: "Matrix") -> bool:
        """Entrywise equality: structural on the exact backend; on the float
        one, each entry within ``tolerance(RTOL, self, other)``."""
        self._check_tags(other)
        if self.shape != other.shape:
            raise ShapeMismatchError(f"equals: {self.shape} vs {other.shape}")
        if self.backend == EXACT:
            return self.grids == other.grids
        tol = tolerance(RTOL, self, other)
        return all(abs(a - b) <= tol for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def is_zero(self, tol: Optional[float] = None) -> bool:
        """Every entry is zero: exactly when ``tol`` is None (what
        :func:`tolerance` gives on the exact backend), else within ``tol``."""
        if tol is None:
            if self.backend == EXACT:
                re, im, _ = self.grids
                return not any(map(any, re)) and not any(map(any, im))
            return all(not e for row in self.entries for e in row)
        return self.max_abs() <= tol

    # -- blocks and conversion ----------------------------------------------

    def block(self, row0: int, col0: int, rows: int, cols: int) -> "Matrix":
        if min(row0, col0, rows, cols) < 0 or row0 + rows > self.rows or col0 + cols > self.cols:
            raise ShapeMismatchError("block out of range")
        if self.backend == EXACT:
            return _grid_ops().block(self, row0, col0, rows, cols)
        grid = tuple(tuple(self.entries[row0 + i][col0 + j] for j in range(cols))
                     for i in range(rows))
        return unchecked(rows, cols, self.involution, self.backend, grid)

    def paste(self, row0: int, col0: int, sub: "Matrix") -> "Matrix":
        """New matrix with ``sub`` written at offset (row0, col0)."""
        self._check_tags(sub)
        if min(row0, col0) < 0 or row0 + sub.rows > self.rows or col0 + sub.cols > self.cols:
            raise ShapeMismatchError("paste out of range")
        if self.backend == EXACT:
            return _grid_ops().paste(self, row0, col0, sub)
        grid = [list(row) for row in self.entries]
        for i in range(sub.rows):
            for j in range(sub.cols):
                grid[row0 + i][col0 + j] = sub.entries[i][j]
        return self._like(tuple(tuple(row) for row in grid))

    def to_float(self) -> "Matrix":
        if self.backend == FLOAT:
            return self
        # x / d rounds correctly, as float(Fraction) does: the same floats.
        re, im, d = self.grids
        grid = tuple(tuple(complex(x / d, y / d) for x, y in zip(rr, ir))
                     for rr, ir in zip(re, im))
        return unchecked(self.rows, self.cols, self.involution, FLOAT, grid)

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


# -- elimination ----------------------------------------------------------


def gauss_jordan(grid: list, ncols: int, tol: float) -> list:
    """Reduce the float row grid ``grid`` (a list of rows of complex floats)
    in place over its first ``ncols`` columns; returns the pivot columns.

    Every row is scaled and combined over its full length, so columns past
    ``ncols`` (a right-hand side, an identity block) are carried along.
    Partial pivoting: a column whose largest candidate is at most ``tol`` in
    absolute value gets no pivot.  Exact grids reduce without fractions in
    :func:`starsolve.grids.gauss_jordan`.
    """
    pivots = []
    nrows = len(grid)
    for pc in range(ncols):
        pr = len(pivots)
        if pr >= nrows:
            break
        sel = max(range(pr, nrows), key=lambda i: abs(grid[i][pc]))
        if abs(grid[sel][pc]) <= tol:
            continue
        grid[pr], grid[sel] = grid[sel], grid[pr]
        piv = grid[pr][pc]
        prow = grid[pr] = [e / piv for e in grid[pr]]
        for i in range(nrows):
            if i == pr:
                continue
            f = grid[i][pc]
            if f:
                grid[i] = [e - f * p for e, p in zip(grid[i], prow)]
        pivots.append(pc)
    return pivots


def rank_factorization(m: Matrix):
    """Full-rank factorization ``m = F @ G``.

    F (rows x r) collects the pivot columns of ``m``; G (r x cols) is the
    nonzero part of the reduced row echelon form; r is the rank.  Rank zero
    yields empty factors.  Float pivots must exceed tolerance(PIVOT_RTOL, m).
    """
    if m.backend == EXACT:
        return _grid_ops().rank_factorization(m)
    red = [list(row) for row in m.entries]
    pivots = gauss_jordan(red, m.cols, tolerance(PIVOT_RTOL, m))
    r = len(pivots)
    f_grid = tuple(tuple(m.entries[i][c] for c in pivots) for i in range(m.rows))
    g_grid = tuple(tuple(red[i]) for i in range(r))
    factor_f = unchecked(m.rows, r, m.involution, FLOAT, f_grid)
    factor_g = unchecked(r, m.cols, m.involution, FLOAT, g_grid)
    return factor_f, factor_g, r


def inverse(m: Matrix) -> Matrix:
    """Ordinary inverse of a square matrix; NotMpInvertibleError if singular.

    Float pivots must exceed tolerance(PIVOT_RTOL, m), taken from ``m``
    alone, not from the identity block reduced alongside it.
    """
    if not m.is_square:
        raise ShapeMismatchError("inverse needs a square matrix")
    n = m.rows
    if m.backend == EXACT:
        return _grid_ops().inverse(m)
    one, zero = _one_scalar(m.backend), _zero_scalar(m.backend)
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(m.entries)]
    if len(gauss_jordan(aug, n, tolerance(PIVOT_RTOL, m))) < n:
        raise NotMpInvertibleError("singular matrix")
    grid = tuple(tuple(row[n:]) for row in aug)
    return unchecked(n, n, m.involution, FLOAT, grid)


def _ldexp(m: Matrix, k: int) -> Matrix:
    """Float ``m`` times 2**k, scaled part by part with math.ldexp, which is
    exact inside the normal range and raises OverflowError past its top."""
    grid = tuple(tuple(complex(math.ldexp(e.real, k), math.ldexp(e.imag, k)) for e in row)
                 for row in m.entries)
    return unchecked(m.rows, m.cols, m.involution, FLOAT, grid)


def mp_inverse(m: Matrix) -> Matrix:
    """Moore-Penrose inverse via rank factorization.

    With ``m = F G`` of rank r, returns ``G* (F* m G*)^-1 F*`` (Ben-Israel &
    Greville, 2003): one inverse, of the r x r core.  At full column rank G
    is the identity and the route is ``(F* m)^-1 F*``.  A float ``m`` is first
    scaled by 2**-k so that its largest entry lies in [0.5, 1), which keeps
    the core near unit scale; the Newton-polished result is scaled back by
    2**-k, as mp(s m) = mp(m) / s.  NotMpInvertibleError if the float rank
    is ambiguous (the core is singular) or the result leaves the float range.
    """
    shift = 0
    if m.backend == FLOAT:
        shift = math.frexp(m.max_abs())[1]
        m = _ldexp(m, -shift)
    factor_f, factor_g, r = rank_factorization(m)
    if r == 0:
        return Matrix.zeros(m.cols, m.rows, m.involution, m.backend)
    f_star = factor_f.star()
    g_star = factor_g.star() if r < m.cols else None
    core = f_star @ m if g_star is None else f_star @ m @ g_star
    try:
        core_inverse = inverse(core)
    except NotMpInvertibleError:
        raise NotMpInvertibleError(
            "numerical rank is ambiguous at working precision; "
            "MP-inverse not computed") from None
    dagger = core_inverse @ f_star if g_star is None else g_star @ core_inverse @ f_star
    if m.backend == EXACT:
        return dagger
    # Newton polish: quadratically shrinks the m x m - m defects without
    # leaving the rank-factorization route.
    for _ in range(_FLOAT_REFINE_STEPS):
        dagger = dagger.add(dagger).sub(dagger @ m @ dagger)
    try:
        return _ldexp(dagger, -shift)
    except OverflowError:
        raise NotMpInvertibleError("MP-inverse exceeds the float range") from None


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


# -- random draws -----------------------------------------------------------


def random_rational(rng: random.Random) -> Fraction:
    # Small values: numerators in [-9, 9], denominators in {1, 2, 3}.
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def random_scalar(rng: random.Random, backend: str, real_only: bool = False):
    if backend == EXACT:
        re = random_rational(rng)
        im = 0 if real_only else random_rational(rng)
        return GaussianRational(re, im)
    re = rng.uniform(-1.0, 1.0)
    im = 0.0 if real_only else rng.uniform(-1.0, 1.0)
    return complex(re, im)


def random_matrix(rng: random.Random, rows: int, cols: int,
                  backend: str = EXACT, involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    real_only = involution == TRANSPOSE
    grid = tuple(tuple(random_scalar(rng, backend, real_only) for _ in range(cols))
                 for _ in range(rows))
    return Matrix(rows, cols, grid, involution, backend)


# -- the ring -----------------------------------------------------------------


class MatrixRing:
    """The ring of square matrices of one size, backend and involution.

    The solvers take it as the ring of c; none of them reads it.
    """

    def __init__(self, size: int, backend: str = EXACT,
                 involution: str = CONJUGATE_TRANSPOSE):
        if size < 1:
            raise ValueError("matrix ring needs size >= 1")
        self.size = size
        self.backend = backend
        self.involution = involution
        self._zero = Matrix.zeros(size, size, involution, backend)
        self._one = Matrix.identity(size, involution, backend)

    def __repr__(self):
        return f"MatrixRing(size={self.size}, backend={self.backend!r}, involution={self.involution!r})"

    def zero(self) -> Matrix:
        return self._zero

    def one(self) -> Matrix:
        return self._one
