"""Exact matrix arithmetic on Gaussian-integer grids.

An exact :class:`~starsolve.matrix.Matrix` holds ``grids = (re, im, d)``:
row tuples of ints over one positive denominator, entry ``(re + im i) / d``,
in lowest terms (``gcd(d, every part) = 1``), so equal values have equal
grids.  Every exact matrix operation runs here on plain ints and builds no
``Fraction``; so does the exact elimination, in
:mod:`starsolve.elimination`, which only a run that inverts loads.
``matrix`` checks the arguments of each operation and imports this module
on first exact use, so a float-only process never compiles it, as an
exact-only one never compiles :mod:`starsolve.floats`.

The builders of exact matrices live here too: :func:`from_grids` checks int
grids once (a random draw, a generator), :func:`from_parts` is the one
builder from per-entry int parts (a file, ``Matrix(...)``), and
:func:`zeros` and :func:`identity` build theirs as given; so is the
conversion of an exact matrix to floats.
"""

import math
from itertools import chain

from .matrix import Matrix, unchecked
from .tags import EXACT, FLOAT, TRANSPOSE, ShapeMismatchError, _check_header, _require_real


def make(rows: int, cols: int, involution: str, re, im, d: int,
         lowest: bool = False) -> Matrix:
    """Exact matrix over the Gaussian-integer grids ``re``, ``im`` and the
    denominator ``d > 0``, their common factor divided out unless the caller
    knows they are in lowest terms."""
    if not lowest and d != 1:
        g = math.gcd(d, *chain.from_iterable(re), *chain.from_iterable(im))
        if g != 1:
            re = [[x // g for x in row] for row in re]
            im = [[y // g for y in row] for row in im]
            d //= g
    return unchecked(rows, cols, involution, EXACT, None,
                     (tuple(map(tuple, re)), tuple(map(tuple, im)), d))


def from_grids(rows: int, cols: int, involution: str, re, im, d: int) -> Matrix:
    """The exact rows x cols matrix of Gaussian-integer grids from outside
    (a random draw, :func:`from_parts`): rows of ``cols`` ints over the int
    ``d > 0``, in any terms.  Checks the tags, the shape, the ints and the
    transpose rule once, then reduces through :func:`make`."""
    _check_header(rows, cols, involution, EXACT)
    if any(len(grid) != rows or any(len(row) != cols for row in grid) for grid in (re, im)):
        raise ShapeMismatchError("grids do not match declared shape")
    if any(x.__class__ is not int for x in chain(*re, *im, (d,))):
        raise TypeError("exact grids hold ints, bool excluded")
    if d < 1:
        raise ValueError(f"denominator must be positive, got {d}")
    if involution == TRANSPOSE:
        _require_real(chain.from_iterable(im))
    return make(rows, cols, involution, re, im, d)


def from_parts(rows: int, cols: int, involution: str, parts) -> Matrix:
    """The exact matrix of per-entry int parts ``(re_num, re_den, im_num,
    im_den)``, denominators nonzero of either sign: every part over the lcm
    of the denominators, then :func:`from_grids`."""
    d = math.lcm(*{den for row in parts for _, re_den, _, im_den in row
                   for den in (re_den, im_den)})
    re = [[x * (d // den) for x, den, _, _ in row] for row in parts]
    im = [[y * (d // den) for _, _, y, den in row] for row in parts]
    return from_grids(rows, cols, involution, re, im, d)


def zeros(rows: int, cols: int, involution: str) -> Matrix:
    zero = ((0,) * cols,) * rows
    return unchecked(rows, cols, involution, EXACT, None, (zero, zero, 1))


def identity(n: int, involution: str) -> Matrix:
    one = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return unchecked(n, n, involution, EXACT, None, (one, ((0,) * n,) * n, 1))


def to_float(m: Matrix) -> Matrix:
    """The float matrix of the exact ``m``."""
    # x / d rounds correctly, as float(Fraction) does: the same floats.
    re, im, d = m.grids
    grid = tuple(tuple(complex(x / d, y / d) for x, y in zip(rr, ir))
                 for rr, ir in zip(re, im))
    return unchecked(m.rows, m.cols, m.involution, FLOAT, grid)


def times(m: Matrix, u: int, v: int, e: int) -> Matrix:
    """``m`` times the Gaussian rational ``(u + v i) / e``."""
    re, im, d = m.grids
    return make(m.rows, m.cols, m.involution,
                [[u * x - v * y for x, y in zip(rr, ir)] for rr, ir in zip(re, im)],
                [[u * y + v * x for x, y in zip(rr, ir)] for rr, ir in zip(re, im)], d * e)


def neg(m: Matrix) -> Matrix:
    return times(m, -1, 0, 1)


def half(m: Matrix) -> Matrix:
    return times(m, 1, 0, 2)


def scale(m: Matrix, parts: tuple) -> Matrix:
    """``m`` times the Gaussian rational of the entry parts ``parts``, which
    :func:`from_parts` checks against the transpose rule."""
    ((u,),), ((v,),), e = from_parts(1, 1, m.involution, ((parts,),)).grids
    return times(m, u, v, e)


def add(left: Matrix, right: Matrix, sign: int) -> Matrix:
    """``left + sign * right`` over the lcm of the two denominators."""
    (lre, lim, dl), (rre, rim, dr) = left.grids, right.grids
    d = math.lcm(dl, dr)
    u, v = d // dl, sign * (d // dr)
    return make(left.rows, left.cols, left.involution,
                [[u * x + v * y for x, y in zip(rl, rr)] for rl, rr in zip(lre, rre)],
                [[u * x + v * y for x, y in zip(rl, rr)] for rl, rr in zip(lim, rim)], d)


def mul(left: Matrix, right: Matrix) -> Matrix:
    """``left @ right``: multiply-accumulates the integer grids, skipping zero
    left entries, over the product of the two denominators, then reduces
    once: one gcd pass instead of one per product and sum."""
    lre, lim, dl = left.grids
    rre, rim, dr = right.grids
    zeros = [0] * right.cols
    re, im = [], []
    for lre_row, lim_row in zip(lre, lim):
        sre, sim = zeros, zeros
        for x, y, rre_row, rim_row in zip(lre_row, lim_row, rre, rim):
            if x or y:
                sre = [s + x * u - y * v for s, u, v in zip(sre, rre_row, rim_row)]
                sim = [s + x * v + y * u for s, u, v in zip(sim, rre_row, rim_row)]
        re.append(sre)
        im.append(sim)
    return make(left.rows, right.cols, left.involution, re, im, dl * dr)


def star(m: Matrix) -> Matrix:
    """Conjugate transpose; also the plain one, since im is zero under the
    transpose involution."""
    re, im, d = m.grids
    return make(m.cols, m.rows, m.involution, list(zip(*re)) or [()] * m.cols,
                [[-y for y in col] for col in zip(*im)] or [()] * m.cols, d, lowest=True)


def max_abs(m: Matrix) -> float:
    # x / d rounds correctly, as float(Fraction) does.
    re, im, d = m.grids
    return max((math.hypot(x / d, y / d) for rr, ir in zip(re, im) for x, y in zip(rr, ir)),
               default=0.0)


def is_zero(m: Matrix) -> bool:
    re, im, _ = m.grids
    return not any(map(any, re)) and not any(map(any, im))


def block(m: Matrix, row0: int, col0: int, rows: int, cols: int) -> Matrix:
    re, im, d = m.grids
    return make(rows, cols, m.involution,
                [row[col0:col0 + cols] for row in re[row0:row0 + rows]],
                [row[col0:col0 + cols] for row in im[row0:row0 + rows]], d)


def paste(m: Matrix, row0: int, col0: int, sub: Matrix) -> Matrix:
    (re, im, d), (sre, sim, sd) = m.grids, sub.grids
    d_out = math.lcm(d, sd)
    grids = []
    for grid, part in ((re, sre), (im, sim)):
        grid = [[d_out // d * x for x in row] for row in grid]
        for i, row in enumerate(part):
            grid[row0 + i][col0:col0 + sub.cols] = [d_out // sd * x for x in row]
        grids.append(grid)
    return make(m.rows, m.cols, m.involution, *grids, d_out)
