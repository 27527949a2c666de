"""Exact fraction-free elimination on Gaussian-integer rows.

The one elimination of the package: :func:`gauss_jordan` reduces the rows
of an exact matrix's grids (see :mod:`starsolve.grids`) with plain ints and
no ``Fraction``; :func:`rank_factorization` and :func:`inverse` are the
bodies of the exact ``matrix.rank_factorization`` and ``matrix.inverse``,
and the oracle solves its real-linear systems with it.  ``matrix`` imports
this module on first use, so a run that never inverts an exact matrix
(``verify``, ``gen`` of most families, every float run) never compiles it.
"""

import math

from .grids import make
from .matrix import Matrix
from .ring import NotMpInvertibleError


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
