"""Float matrix arithmetic on complex entries.

A float :class:`~starsolve.matrix.Matrix` holds its entries as row tuples of
finite ``complex`` numbers.  Every float matrix operation runs here; the
float Moore-Penrose inverse, a complete orthogonal decomposition by
Householder QR, runs in :mod:`starsolve.orthogonal`.  ``matrix`` checks the
arguments of each operation and imports this module on first float use, so
an exact-only process never compiles it, as a float-only one never compiles
:mod:`starsolve.grids`.  Results are built by
:func:`~starsolve.matrix.unchecked`, never re-checked: a float overflow
travels on as inf or NaN.
"""

import math
import operator
from itertools import chain

from .matrix import Matrix, unchecked
from .tags import CONJUGATE_TRANSPOSE, FLOAT, TRANSPOSE, _require_real


def _like(m: Matrix, grid) -> Matrix:
    """The float matrix of ``grid``, with the shape and tags of ``m``."""
    return unchecked(m.rows, m.cols, m.involution, FLOAT, grid)


def from_parts(rows: int, cols: int, involution: str, entries) -> Matrix:
    """The float matrix of finite ``complex`` entries (the float parts of
    ``Matrix(...)``), real under the transpose involution."""
    if involution == TRANSPOSE:
        _require_real(z.imag for z in chain.from_iterable(entries))
    return unchecked(rows, cols, involution, FLOAT, entries)


def zeros(rows: int, cols: int, involution: str) -> Matrix:
    return unchecked(rows, cols, involution, FLOAT, ((complex(0.0),) * cols,) * rows)


def identity(n: int, involution: str) -> Matrix:
    grid = tuple(tuple(complex(i == j) for j in range(n)) for i in range(n))
    return unchecked(n, n, involution, FLOAT, grid)


def to_float(m: Matrix) -> Matrix:
    return m


def add(left: Matrix, right: Matrix, sign: int) -> Matrix:
    """``left + right`` when ``sign`` is 1, ``left - right`` when it is -1."""
    op = operator.add if sign > 0 else operator.sub
    return _like(left, tuple(tuple(map(op, ra, rb))
                             for ra, rb in zip(left.entries, right.entries)))


def neg(m: Matrix) -> Matrix:
    return _like(m, tuple(tuple(-a for a in row) for row in m.entries))


def mul(left: Matrix, right: Matrix) -> Matrix:
    """``left @ right``, row by row, skipping zero left entries."""
    zero = complex(0.0)
    ocols = right.cols
    entries = right.entries
    out = []
    for lrow in left.entries:
        orow = [zero] * ocols
        for k in range(left.cols):
            lik = lrow[k]
            if not lik:
                continue
            rrow = entries[k]
            for j in range(ocols):
                orow[j] = orow[j] + lik * rrow[j]
        out.append(tuple(orow))
    return unchecked(left.rows, ocols, left.involution, FLOAT, tuple(out))


def star(m: Matrix) -> Matrix:
    """The involution: conjugate transpose, or the plain one."""
    # zip(*rows) yields the columns; with no rows there is nothing to zip.
    cols = zip(*m.entries) if m.rows else ((),) * m.cols
    if m.involution == CONJUGATE_TRANSPOSE:
        grid = tuple(tuple(e.conjugate() for e in col) for col in cols)
    else:
        grid = tuple(cols)
    return unchecked(m.cols, m.rows, m.involution, FLOAT, grid)


def scale(m: Matrix, s: complex) -> Matrix:
    if m.involution == TRANSPOSE:
        _require_real((s.imag,))
    return _like(m, tuple(tuple(s * a for a in row) for row in m.entries))


def half(m: Matrix) -> Matrix:
    return _like(m, tuple(tuple(0.5 * a for a in row) for row in m.entries))


def max_abs(m: Matrix) -> float:
    values = [abs(e) for row in m.entries for e in row]
    if any(map(math.isnan, values)):
        return math.nan
    return max(values, default=0.0)


def is_zero(m: Matrix) -> bool:
    return all(not e for row in m.entries for e in row)


def block(m: Matrix, row0: int, col0: int, rows: int, cols: int) -> Matrix:
    grid = tuple(tuple(m.entries[row0 + i][col0 + j] for j in range(cols))
                 for i in range(rows))
    return unchecked(rows, cols, m.involution, FLOAT, grid)


def paste(m: Matrix, row0: int, col0: int, sub: Matrix) -> Matrix:
    grid = [list(row) for row in m.entries]
    for i in range(sub.rows):
        for j in range(sub.cols):
            grid[row0 + i][col0 + j] = sub.entries[i][j]
    return _like(m, tuple(tuple(row) for row in grid))
