"""Dense matrices over Gaussian rationals or complex floats, with involution.

Matrices under conjugate-transpose or plain-transpose involution are the
rings with involution the solvers work in.  This module holds their
arithmetic, the Moore-Penrose inverse (by rank factorization when exact,
by complete orthogonal decomposition on floats) and the Penrose checks.
Rectangular matrices use the same type; only :class:`MatrixRing` insists
on squareness.  Plain-transpose matrices have real entries, on which the
MP-inverse always exists.

An exact matrix is held as Gaussian-integer grids over one denominator;
its arithmetic and its fraction-free elimination, the only one, live in
:mod:`starsolve.grids`, which a float-only process never loads.  Exact
zeros, identities and random draws are built as grids too, so
:mod:`starsolve.scalars` and ``fractions`` load only when code reads an
exact matrix's ``entries`` or passes Python scalars to :meth:`Matrix.exact`.

One checking rule on both backends: the validating constructors check data
from outside once, each operation checks its own arguments once before it
picks a backend, and :func:`unchecked` builds every arithmetic result as
given, never re-checked (a float overflow travels on as inf or NaN).
"""

import math
import random
from itertools import chain
from operator import add, mul, sub
from typing import Optional, Sequence

from .ring import NotMpInvertibleError

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
    if isinstance(value, bool):
        raise TypeError(f"bool is not a {backend} matrix entry")
    if backend == EXACT:
        # the per-entry view: scalars (and fractions) load with the first exact entry
        from fractions import Fraction
        from .scalars import GaussianRational
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"exact matrices take GaussianRational/int/Fraction entries, got {value!r}")
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


def _grid_ops():
    """The exact arithmetic, :mod:`starsolve.grids`, imported on first use,
    so that a float-only process never compiles it."""
    from . import grids
    return grids


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

    def __init__(self, rows: int, cols: int, entries: tuple,
                 involution: str = CONJUGATE_TRANSPOSE, backend: str = EXACT):
        _check_header(rows, cols, involution, backend)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ShapeMismatchError("entry grid does not match declared shape")
        if involution == TRANSPOSE:
            _require_real(v.im if backend == EXACT else v.imag
                          for v in chain.from_iterable(entries))
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
            from fractions import Fraction
            from .scalars import GaussianRational
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
        zero = complex(0.0)
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
            _require_real((s.im if self.backend == EXACT else s.imag,))
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


def from_grids(rows: int, cols: int, involution: str, re, im, d: int) -> Matrix:
    """The exact rows x cols matrix of Gaussian-integer grids from outside
    (a file, a random draw): rows of ``cols`` ints over ``d > 0``, in any
    terms.  Checks the tags and the transpose rule once, as the constructor
    does, then reduces through :func:`starsolve.grids.make`."""
    _check_header(rows, cols, involution, EXACT)
    if involution == TRANSPOSE:
        _require_real(chain.from_iterable(im))
    return _grid_ops().make(rows, cols, involution, re, im, d)


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
    return _grid_ops().rank_factorization(m)


def inverse(m: Matrix) -> Matrix:
    """Ordinary inverse of a square exact matrix; NotMpInvertibleError if singular."""
    if m.backend != EXACT:
        raise ValueError("inverse takes an exact matrix")
    if not m.is_square:
        raise ShapeMismatchError("inverse needs a square matrix")
    return _grid_ops().inverse(m)


def _ldexp(m: Matrix, k: int) -> Matrix:
    """Float ``m`` times 2**k, by math.ldexp on each part: exact inside the
    normal range, OverflowError past its top, zeros unsigned (+ 0.0)."""
    grid = tuple(tuple(complex(math.ldexp(e.real, k) + 0.0, math.ldexp(e.imag, k) + 0.0)
                       for e in row) for row in m.entries)
    return unchecked(m.rows, m.cols, m.involution, FLOAT, grid)


def _eye(n):
    """The n x n float identity as a list of columns."""
    return [[complex(i == j) for i in range(n)] for j in range(n)]


def _householder_qr(cols, n, tol=None):
    """Householder QR of the first ``n`` float columns of ``cols`` in place,
    R in their upper triangle; each reflection also acts on the columns past
    ``n``.  With ``tol``, each step brings the column of largest remaining
    norm forward, until it is at most ``tol``.  Gives (column order, rank)."""
    order = list(range(n))
    k = min(n, len(cols[0]) if cols else 0)
    for j in range(k):
        if tol is None:
            alpha = math.hypot(*map(abs, cols[j][j:]))
        else:
            norms = [math.hypot(*map(abs, c[j:])) for c in cols[j:n]]
            alpha = max(norms)
            if alpha <= tol:
                return order, j
            p = j + norms.index(alpha)
            cols[j], cols[p], order[j], order[p] = cols[p], cols[j], order[p], order[j]
        x = cols[j]
        if any(x[j + 1:]):  # else no reflection is needed
            sign = x[j] / abs(x[j]) if x[j] else complex(1.0)
            scale = 1.0 / math.sqrt(alpha * (alpha + abs(x[j])))
            v = [(x[j] + sign * alpha) * scale] + [e * scale for e in x[j + 1:]]
            v_conj = [w.conjugate() for w in v]
            x[j] = -sign * alpha
            for c in cols[j + 1:]:  # c -= v (v* c), with v* v = 2
                s = sum(map(mul, v_conj, c[j:]))
                if s:
                    c[j:] = map(sub, c[j:], map(s.__mul__, v))
    return order, k


def mp_inverse(m: Matrix) -> Matrix:
    """Moore-Penrose inverse.

    Exact, by rank factorization ``m = F G`` of rank r: ``G* (F* m G*)^-1 F*``
    (Ben-Israel & Greville, 2003), ``(F* m)^-1 F*`` at full column rank.

    Float, by complete orthogonal decomposition (Businger & Golub 1965; Golub
    & Van Loan, 4th ed., 5.4), which does not square cond(m): with m scaled
    by 2**-s into [0.5, 1), QR with column pivoting gives m P = Q [R11 R12;
    0 0] and the rank k (pivot norms above tolerance(PIVOT_RTOL, m)), an
    unpivoted QR gives [R11 R12]* = Z [T; 0], and mp(m) = P Z_k T^-* Q_k*
    2**-s.  NotMpInvertibleError if that leaves the float range.
    """
    if m.backend == EXACT:
        factor_f, factor_g, r = rank_factorization(m)
        if r == 0:
            return Matrix.zeros(m.cols, m.rows, m.involution, m.backend)
        f_star = factor_f.star()
        if r == m.cols:
            return inverse(f_star @ m) @ f_star
        g_star = factor_g.star()
        return g_star @ inverse(f_star @ m @ g_star) @ f_star
    shift = math.frexp(m.max_abs())[1]
    m = _ldexp(m, -shift)
    rows, n = m.shape
    cols = [list(c) for c in zip(*m.entries)] + _eye(rows)
    order, k = _householder_qr(cols, n, tolerance(PIVOT_RTOL, m))
    if k == 0:
        return Matrix.zeros(n, rows, m.involution, FLOAT)
    # cols[n + r] is now column r of Q*; the QR of [R11 R12]* leaves column
    # i of T in z[i] and column j of Z* in z[k + j]
    z = [[0j] * i + [cols[j][i].conjugate() for j in range(i, n)] for i in range(k)] + _eye(n)
    _householder_qr(z, k)
    y = []  # Y = T^-* Q_k*, by forward substitution
    for i in range(k):
        row = [q[i] for q in cols[n:]]
        for t_li, y_l in zip(z[i][:i], y):
            if t_li:
                row = map(sub, row, map(t_li.conjugate().__mul__, y_l))
        y.append(list(map(z[i][i].conjugate().__rtruediv__, row)))
    x = []  # row j of Z_k Y: Z_k's row j is the conjugate of Z* e_j
    for z_j in z[k:]:
        row = [0j] * rows
        for z_ij, y_i in zip(z_j, y):
            if z_ij:
                row = map(add, row, map(z_ij.conjugate().__mul__, y_i))
        x.append(tuple(row))
    grid = tuple(row for _, row in sorted(zip(order, x)))  # P moves row j to order[j]
    try:
        return _ldexp(unchecked(n, rows, m.involution, FLOAT, grid), -shift)
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


def random_sixths(rng: random.Random) -> int:
    """A small random rational r as the integer 6 r: numerator in [-9, 9]
    (``randint``), then denominator in {1, 2, 3} (``choice``)."""
    numerator = rng.randint(-9, 9)
    return numerator * (6 // rng.choice((1, 2, 3)))


def random_matrix(rng: random.Random, rows: int, cols: int,
                  backend: str = EXACT, involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    """Random entries drawn row by row, real part then imaginary part (none
    under the transpose involution): exact ones by :func:`random_sixths`,
    straight into a grid over the denominator 6; float ones uniform in
    [-1, 1]."""
    real_only = involution == TRANSPOSE
    if backend == EXACT:
        draws = [[(random_sixths(rng), 0 if real_only else random_sixths(rng))
                  for _ in range(cols)] for _ in range(rows)]
        return from_grids(rows, cols, involution, [[x for x, _ in row] for row in draws],
                          [[y for _, y in row] for row in draws], 6)
    grid = tuple(tuple(complex(rng.uniform(-1.0, 1.0),
                               0.0 if real_only else rng.uniform(-1.0, 1.0))
                       for _ in range(cols)) for _ in range(rows))
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
