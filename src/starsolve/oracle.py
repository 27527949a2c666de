"""Exact ground truth by real-linearization.

The map X -> A X B* -/+ B X* A* is additive but only real-linear (the star
conjugates scalars), so the equation A X B* -/+ B X* A* = C is written as
integer rows over the coordinates (Re X_ij, Im X_ij) -- just Re X_ij under
the transpose involution, where entries are real.  Solving those rows
exactly (elimination.gauss_jordan, fraction-free) gives an independent verdict,
a particular solution read off the reduced rows as an exact grid, and the
real dimension of the solution set.

The CLI runs none of this: `solve --oracle` reports the closed-form
certificate of certify.py, which needs no elimination.  This module is the
ground truth that certificate is tested against
(verify_family_against_oracle).  The instance generators live in
generate.py; the three ``random_*_instance`` names are re-exported here
for the benchmark harness (perfbench/workloads.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .certify import OracleAgreement, _coefficients, certify_family
from .generate import random_rect_instance, random_sym_instance, random_square_instance
from .elimination import gauss_jordan
from .grids import make
from .matrix import Matrix
from .solvers import MINUS, SolutionFamily, _check_sign
from .tags import EXACT, TRANSPOSE

__all__ = ["OracleResult", "RealLinearSystem", "linearize", "oracle_solve",
           "random_rect_instance", "random_sym_instance", "random_square_instance",
           "verify_family_against_oracle"]

RE = "re"
IM = "im"


def _require_exact(*mats: Matrix):
    if any(m.backend != EXACT for m in mats):
        raise ValueError("the oracle works on the exact backend only")


@dataclass(frozen=True)
class RealLinearSystem:
    """Integer rows of A X B* -/+ B X* A* = C over the real coordinates of X.

    One row per real coordinate of an output entry (row-major, re before
    im), one column per real coordinate of X, in the order of
    ``col_index``.  The rows are the rational equations scaled to integers
    by one common factor, so they have the equation's solution set.
    """

    matrix: tuple     # tuple of row tuples of ints
    rhs: tuple        # ints, one per row
    col_index: tuple  # (i, j, "re"/"im") per column


def linearize(sign: str, a: Matrix, b: Matrix, c: Optional[Matrix] = None) -> RealLinearSystem:
    """Real-linear system for A X B* -/+ B X* A* (= C when given).

    A: m x n and B: m x p define the map on X: n x p; the rhs is the zero
    vector unless C (m x m) is supplied.
    """
    _check_sign(sign)
    _require_exact(a, b)
    a._check_tags(b)
    if a.rows != b.rows:
        raise ValueError(f"A and B must share their row count; got {a.shape}, {b.shape}")
    m, n, p = a.rows, a.cols, b.cols
    if c is not None:
        _require_exact(c)
        a._check_tags(c)
        if c.shape != (m, m):
            raise ValueError(f"C must be {m}x{m}, got {c.shape}")
    k = 1 if a.involution == TRANSPOSE else 2  # real coordinates per entry
    col_index = tuple((i, j, part) for i in range(n) for j in range(p) for part in (RE, IM)[:k])

    # Every row is scaled by den * d_c: den is the coefficients' denominator,
    # d_c is C's (1 without C).  X[i][j] = x + iy adds
    # (alpha + beta) x + i (alpha - beta) y to out[r][s].
    starred = b.neg() if sign == MINUS else b
    den, coefficients = _coefficients([(a, b.star())], [(starred, a.star())])
    if c is None:
        d_c, rhs = 1, (0,) * (m * m * k)
    else:
        c_re, c_im, d_c = c.grids
        rhs = tuple(part[r][s] * den for r in range(m) for s in range(m)
                    for part in (c_re, c_im)[:k])
    grid = [[0] * len(col_index) for _ in rhs]
    for r, s, i, j, (alpha_re, alpha_im), (beta_re, beta_im) in coefficients:
        row, col = (r * m + s) * k, (i * p + j) * k
        grid[row][col] = (alpha_re + beta_re) * d_c
        if k == 2:
            grid[row + 1][col] = (alpha_im + beta_im) * d_c
            grid[row][col + 1] = (beta_im - alpha_im) * d_c
            grid[row + 1][col + 1] = (alpha_re - beta_re) * d_c
    return RealLinearSystem(tuple(map(tuple, grid)), rhs, col_index)


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth verdict for one instance: ``real_dimension`` is the real
    dimension of the homogeneous solution set (columns minus rank)."""

    solvable: bool
    particular: Optional[Matrix]
    real_dimension: int


def oracle_solve(sign: str, a: Matrix, b: Matrix, c: Matrix) -> OracleResult:
    """Exact verdict, particular solution (free variables zero) and the real
    dimension of the solution set, from one elimination of the real system."""
    system = linearize(sign, a, b, c)
    ncols = len(system.col_index)
    aug = [([*row, value], [0] * (ncols + 1)) for row, value in zip(system.matrix, system.rhs)]
    pivots = gauss_jordan(aug, ncols)
    rank = len(pivots)
    if any(re[ncols] for re, _, _ in aug[rank:]):
        return OracleResult(False, None, ncols - rank)

    # Pivot row (re, _, den) reads x[pc] = re[ncols] / den with the free
    # columns zero; the solution is built over d.
    d = math.lcm(*(den for _, _, den in aug[:rank]))
    n, p = a.cols, b.cols
    parts = {RE: [[0] * p for _ in range(n)], IM: [[0] * p for _ in range(n)]}
    for (re, _, den), pc in zip(aug, pivots):
        i, j, part = system.col_index[pc]
        parts[part][i][j] = re[ncols] * (d // den)
    return OracleResult(True, make(n, p, a.involution, parts[RE], parts[IM], d),
                        ncols - rank)


def verify_family_against_oracle(fam: SolutionFamily, oracle: OracleResult) -> OracleAgreement:
    """The family's certificate (certify.certify_family) held against the
    elimination: the oracle must find the instance solvable, so that x0 is
    in its solution set (the oracle's rows are the exact linearization of
    the equation whose residual x0 zeroes), and the trace of L must equal
    the oracle's real dimension.  Each disagreement adds a witness."""
    cert = certify_family(fam)
    witnesses = list(cert.witnesses)
    if not oracle.solvable:
        witnesses.append("x0 is not in the oracle's solution set")
    if cert.real_dimension is not None and cert.real_dimension != oracle.real_dimension:
        witnesses.append(f"the real trace of L is {cert.real_dimension}, the oracle's "
                         f"real dimension {oracle.real_dimension}")
    return cert._replace(x0_ok=cert.x0_ok and oracle.solvable, witnesses=tuple(witnesses))
