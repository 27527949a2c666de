"""Exact matrix arithmetic on Gaussian-integer grids.

An exact :class:`~starsolve.matrix.Matrix` holds ``grids = (re, im, d)``:
row tuples of ints over one positive denominator, entry ``(re + im i) / d``,
in lowest terms (``gcd(d, every part) = 1``), so equal values have equal
grids.  Every exact matrix operation, and the exact elimination, runs here
on plain ints and builds no ``Fraction``.  ``matrix`` imports this module
on first exact use, so a float-only process never compiles it.
"""

import math
from itertools import chain

from .matrix import EXACT, Matrix, unchecked
from .ring import NotMpInvertibleError


def from_entries(entries) -> tuple:
    """``grids`` of an exact entry grid: ``d`` is the lcm of the denominators
    of all its parts, which leaves no common factor."""
    d = math.lcm(*{p.denominator for row in entries for e in row for p in (e.re, e.im)})
    re = tuple(tuple(e.re.numerator * (d // e.re.denominator) for e in row) for row in entries)
    im = tuple(tuple(e.im.numerator * (d // e.im.denominator) for e in row) for row in entries)
    return re, im, d


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


def times(m: Matrix, u: int, v: int, e: int) -> Matrix:
    """``m`` times the Gaussian rational ``(u + v i) / e``."""
    re, im, d = m.grids
    return make(m.rows, m.cols, m.involution,
                [[u * x - v * y for x, y in zip(rr, ir)] for rr, ir in zip(re, im)],
                [[u * y + v * x for x, y in zip(rr, ir)] for rr, ir in zip(re, im)], d * e)


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


# -- elimination ----------------------------------------------------------


def gauss_jordan(grid: list, ncols: int) -> list:
    """Exact Gauss-Jordan without fractions on rows ``(re, im)``: int lists,
    the row ``re + im i`` up to a nonzero scale.  Returns the pivot columns.

    Pivots on the first nonzero entry of each column.  A row with a nonzero
    entry f in the pivot column becomes ``p row - f pivot_row`` (p the pivot),
    so every row stays a nonzero multiple of the row a rational elimination
    would hold.  On a real grid each such row is then divided by the gcd of
    its entries.  On a Gaussian grid it is divided exactly by the pivot of
    the row's previous update (Bareiss, *Math. Comp.* 22, 1968), since an
    integer gcd leaves Gaussian factors to pile up; a pivot row is first
    brought up to date.  At the end each pivot row becomes ``(re, im, den)``,
    the row divided by its pivot in lowest terms, den > 0; each later row
    becomes ``(re, im, 1)``, zero or not where the rational row is.
    """
    pivots = []
    nrows = len(grid)
    real = not any(any(im) for _, im in grid)
    divisor = [(1, 0)] * nrows  # Gaussian grids: the pivot of each row's last update
    last = (1, 0)
    for pc in range(ncols):
        pr = len(pivots)
        if pr >= nrows:
            break
        sel = next((i for i in range(pr, nrows) if grid[i][0][pc] or grid[i][1][pc]), None)
        if sel is None:
            continue
        grid[pr], grid[sel] = grid[sel], grid[pr]
        divisor[pr], divisor[sel] = divisor[sel], divisor[pr]
        pre, pim = grid[pr]
        if not real and divisor[pr] != last:
            pre, pim = grid[pr] = _update(*last, pre, pim, 0, 0, pre, pim, divisor[pr])
        p, q = pre[pc], pim[pc]
        for i in range(nrows):
            re, im = grid[i]
            f, g = re[pc], im[pc]
            if i == pr or not (f or g):
                continue
            if real:
                re = [p * x - f * y for x, y in zip(re, pre)]
                k = math.gcd(*re)
                grid[i] = ([x // k for x in re] if k > 1 else re, im)
            else:
                grid[i] = _update(p, q, re, im, f, g, pre, pim, divisor[i])
                divisor[i] = (p, q)
        last = divisor[pr] = (p, q)
        pivots.append(pc)
    for r, pc in enumerate(pivots):  # row / (p + q i) = row (p - q i) / (p^2 + q^2)
        re, im = grid[r]
        p, q = re[pc], im[pc]
        re, im = [x * p + u * q for x, u in zip(re, im)], [u * p - x * q for x, u in zip(re, im)]
        den = p * p + q * q
        k = math.gcd(den, *re, *im)
        grid[r] = ([x // k for x in re], [u // k for u in im], den // k)
    for i in range(len(pivots), nrows):
        grid[i] = (*grid[i], 1)
    return pivots


def _update(p, q, re, im, f, g, yre, yim, divisor) -> tuple:
    """The Gaussian-integer row ``((p + q i) row - (f + g i) y) / divisor``
    as ``(re, im)``, for a Gaussian integer ``divisor = (a, b)`` known to
    divide it exactly."""
    out_re = [p * x - q * u - f * y + g * v for x, u, y, v in zip(re, im, yre, yim)]
    out_im = [p * u + q * x - f * v - g * y for x, u, y, v in zip(re, im, yre, yim)]
    a, b = divisor
    if not b:
        return ([x // a for x in out_re], [u // a for u in out_im]) if a != 1 else (out_re, out_im)
    n = a * a + b * b  # (x + u i) / (a + b i) = (x + u i)(a - b i) / n
    return ([(x * a + u * b) // n for x, u in zip(out_re, out_im)],
            [(u * a - x * b) // n for x, u in zip(out_re, out_im)])


def _from_rows(rows: list, start: int, cols: int, involution: str) -> Matrix:
    """Exact matrix of the reduced rows ``(re, im, den)`` that
    :func:`gauss_jordan` leaves, from column ``start`` on."""
    d = math.lcm(*(den for _, _, den in rows))
    return make(len(rows), cols, involution,
                [[d // den * x for x in re[start:]] for re, _, den in rows],
                [[d // den * u for u in im[start:]] for _, im, den in rows], d)


def rank_factorization(m: Matrix):
    """``(F, G, r)`` of :func:`starsolve.matrix.rank_factorization`."""
    re, im, d = m.grids
    red = [(list(x), list(u)) for x, u in zip(re, im)]
    pivots = gauss_jordan(red, m.cols)
    r = len(pivots)
    factor_f = make(m.rows, r, m.involution, [[row[c] for c in pivots] for row in re],
                    [[row[c] for c in pivots] for row in im], d)
    return factor_f, _from_rows(red[:r], 0, m.cols, m.involution), r


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square ``m``; NotMpInvertibleError if it is singular."""
    # [m | I] scaled by d: the rows [d m | d I] are Gaussian-integer rows.
    re, im, d = m.grids
    n = m.rows
    aug = [([*x, *(d if i == j else 0 for j in range(n))], [*u, *(0,) * n])
           for i, (x, u) in enumerate(zip(re, im))]
    if len(gauss_jordan(aug, n)) < n:
        raise NotMpInvertibleError("singular matrix")
    return _from_rows(aug, n, n, m.involution)
