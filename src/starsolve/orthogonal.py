"""The float Moore-Penrose inverse, by complete orthogonal decomposition.

The float counterpart of :mod:`starsolve.elimination`: Householder QR with
column pivoting on complex entries, the body of the float
``matrix.mp_inverse``.  ``matrix`` imports this module on first use, so a
float run that never inverts (``verify``) never compiles it.  Results are
built by :func:`~starsolve.matrix.unchecked`, never re-checked.
"""

import math
import operator

from .floats import _like
from .matrix import Matrix, unchecked
from .ring import NotMpInvertibleError
from .tags import FLOAT, PIVOT_RTOL, tolerance


def _ldexp(m: Matrix, k: int) -> Matrix:
    """``m`` times 2**k, by math.ldexp on each part: exact inside the
    normal range, OverflowError past its top, zeros unsigned (+ 0.0)."""
    return _like(m, tuple(tuple(complex(math.ldexp(e.real, k) + 0.0,
                                        math.ldexp(e.imag, k) + 0.0)
                                for e in row) for row in m.entries))


def _eye(n):
    """The n x n identity as a list of columns."""
    return [[complex(i == j) for i in range(n)] for j in range(n)]


def _householder_qr(cols, n, tol=None):
    """Householder QR of the first ``n`` columns of ``cols`` in place, R in
    their upper triangle; each reflection also acts on the columns past
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
                s = sum(map(operator.mul, v_conj, c[j:]))
                if s:
                    c[j:] = map(operator.sub, c[j:], map(s.__mul__, v))
    return order, k


def mp_inverse(m: Matrix) -> Matrix:
    """Moore-Penrose inverse by complete orthogonal decomposition (Businger
    & Golub 1965; Golub & Van Loan, 4th ed., 5.4), which does not square
    cond(m): with m scaled by 2**-s into [0.5, 1), QR with column pivoting
    gives m P = Q [R11 R12; 0 0] and the rank k (pivot norms above
    tolerance(PIVOT_RTOL, m)), an unpivoted QR gives [R11 R12]* = Z [T; 0],
    and mp(m) = P Z_k T^-* Q_k* 2**-s.  NotMpInvertibleError if that leaves
    the float range."""
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
                row = map(operator.sub, row, map(t_li.conjugate().__mul__, y_l))
        y.append(list(map(z[i][i].conjugate().__rtruediv__, row)))
    x = []  # row j of Z_k Y: Z_k's row j is the conjugate of Z* e_j
    for z_j in z[k:]:
        row = [0j] * rows
        for z_ij, y_i in zip(z_j, y):
            if z_ij:
                row = map(operator.add, row, map(z_ij.conjugate().__mul__, y_i))
        x.append(tuple(row))
    grid = tuple(row for _, row in sorted(zip(order, x)))  # P moves row j to order[j]
    try:
        return _ldexp(unchecked(n, rows, m.involution, FLOAT, grid), -shift)
    except OverflowError:
        raise NotMpInvertibleError("MP-inverse exceeds the float range") from None
