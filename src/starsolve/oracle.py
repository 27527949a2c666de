"""Exact ground truth by real-linearization, plus instance generators.

The map X -> A X B* -/+ B X* A* is additive but only real-linear (the star
conjugates scalars), so the equation A X B* -/+ B X* A* = C is written as
integer rows over the coordinates (Re X_ij, Im X_ij) -- just Re X_ij under
the transpose involution, where entries are real.  Solving those rows
exactly (grids.gauss_jordan, fraction-free) gives an independent verdict,
a particular solution read off the reduced rows as an exact grid, and the
real dimension of the solution set.  The closed-form families are checked
against it with no kernel basis: see verify_family_against_oracle.

The generators down the bottom produce exact instances that satisfy the
solvers' standing hypotheses by construction; random pairs almost never do
at rank deficiency, so each family seeds structure deliberately.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add
from typing import Optional

from . import grids
from .formats import GenerationError, PAIR_FAMILIES, RECT_FAMILIES
from .matrix import (CONJUGATE_TRANSPOSE, EXACT, TRANSPOSE, Matrix, MatrixRing,
                     random_matrix, random_rational)
from .rect import RectProblem
from .scalars import GaussianRational
from .solvers import (MINUS, PLUS, SolutionFamily, _check_sign, check_hypotheses, equation_lhs,
                      sym_general_form)

RE = "re"
IM = "im"

_MAX_TRIES = 500


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


def _coefficients(linear, starred):
    """Coefficients of v -> sum X v Y + sum X' v* Y', given the exact (X, Y)
    pairs (non-empty) and (X', Y') pairs, over one denominator: returns
    ``(den, coefficients)``, where each (r, s, i, j, alpha, beta) adds
    (alpha v[i][j] + beta conj(v[i][j])) / den to out[r][s], alpha and beta
    Gaussian integers as (re, im) pairs."""
    den = math.lcm(*(x.grids[2] * y.grids[2] for x, y in (*linear, *starred)))

    def scaled(pairs):  # X scaled so that each product X[r][i] Y[j][s] is over den
        out = []
        for x, y in pairs:
            (xre, xim, dx), (yre, yim, dy) = x.grids, y.grids
            k = den // (dx * dy)
            out.append(([[k * e for e in row] for row in xre],
                        [[k * e for e in row] for row in xim], yre, yim))
        return out

    def coefficient(pairs, r, i, j, s):
        re = im = 0
        for xre, xim, yre, yim in pairs:
            a, b, c, d = xre[r][i], xim[r][i], yre[j][s], yim[j][s]
            re += a * c - b * d
            im += a * d + b * c
        return re, im

    lin, star = scaled(linear), scaled(starred)
    x, y = linear[0]
    return den, ((r, s, i, j, coefficient(lin, r, i, j, s), coefficient(star, r, j, i, s))
                 for r, s, i, j in product(range(x.rows), range(y.cols), range(x.cols),
                                           range(y.rows)))


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
    pivots = grids.gauss_jordan(aug, ncols)
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
    return OracleResult(True, grids.make(n, p, a.involution, parts[RE], parts[IM], d),
                        ncols - rank)


@dataclass(frozen=True)
class OracleAgreement:
    """Cross-check of a closed-form family against the oracle's solution set:
    together the two flags prove that x0 + image(L) is exactly that set."""

    x0_ok: bool
    homogeneous_in_kernel_ok: bool
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.x0_ok and self.homogeneous_in_kernel_ok

    def as_dict(self) -> dict:
        return {"x0_in_oracle_set": self.x0_ok,
                # L(v) = v - P(eq(v)) is v on every kernel element: true by construction
                "kernel_elements_fixed": True,
                "homogeneous_images_in_kernel": self.homogeneous_in_kernel_ok,
                "witnesses": list(self.witnesses)}


def verify_family_against_oracle(fam: SolutionFamily, oracle: OracleResult) -> OracleAgreement:
    """Check, for every v and with no random draw, that x0 + image(L) is the
    oracle's solution set.  (i) The oracle finds the instance solvable and
    x0's exact residual is zero, which is membership in the oracle's set,
    since the oracle's rows are the exact linearization of that equation.
    (ii) L fixes the kernel: L(v) = v - g eq(v) h is v wherever eq(v) = 0,
    so this holds by construction and needs no kernel basis.  (iii)
    eq(L(v)) = eq(v) - eq(g eq(v) h) vanishes: each coefficient pair
    (alpha, beta) of it is zero (their sum under the transpose, where v is
    real).  With eps = -1 (minus) or +1 (plus), eq(w)* = eps eq(w), so
    eq(g w h) = (a g) w (h b*) + (b h*) w (g* a*) at w = eq(v), and
    eq(L(v)) = B(v) + eps B(v)* with
    B(v) = a v b* - (a g a) v (b* h b*) - (b h* a) v (b* g* a*).
    """
    _require_exact(fam.x0)
    witnesses = []
    x0_ok = oracle.solvable and fam.residual(fam.x0).is_zero()
    if not x0_ok:
        witnesses.append("x0 is not in the oracle's solution set")

    a, b, g, h = fam.a, fam.b, fam.g, fam.h
    bs, ag, bh, gas = b.star(), a @ g, b @ h.star(), g.star() @ a.star()
    linear = [(a, bs), ((ag @ a).neg(), bs @ h @ bs), ((bh @ a).neg(), bs @ gas)]
    # (X v Y)* = Y* v* X*
    starred = [(y.star().neg() if fam.sign == MINUS else y.star(), x.star())
               for x, y in linear]
    real = a.involution == TRANSPOSE
    homogeneous_ok = True
    for r, s, i, j, alpha, beta in _coefficients(linear, starred)[1]:
        if any(map(add, alpha, beta)) if real else any(alpha) or any(beta):
            homogeneous_ok = False
            witnesses.append(f"eq(L(v))[{r}][{s}] depends on v[{i}][{j}]")
            break
    return OracleAgreement(x0_ok, homogeneous_ok, tuple(witnesses))


# -- generators ---------------------------------------------------------------
#
# Square pair families (all exact, all satisfying the standing hypotheses):
#   unitary   a unitary/orthogonal with rational entries, b arbitrary
#   equal     b = a
#   diagonal  commuting real/complex diagonals with support(b) inside support(a)
#   rejection bounded rejection sampling of dense pairs
# unitary and rejection are the rect coisometry and rejection pairs at (n, n, n).
# The family names PAIR_FAMILIES and RECT_FAMILIES live in formats.py.

# Unit-modulus Gaussian rationals (conjugate-transpose involution).
_UNIT_SCALARS = (
    GaussianRational(1), GaussianRational(-1),
    GaussianRational(0, 1), GaussianRational(0, -1),
    GaussianRational(Fraction(3, 5), Fraction(4, 5)),
    GaussianRational(Fraction(3, 5), Fraction(-4, 5)),
    GaussianRational(Fraction(4, 5), Fraction(3, 5)),
    GaussianRational(Fraction(5, 13), Fraction(12, 13)),
    GaussianRational(Fraction(12, 13), Fraction(-5, 13)),
    GaussianRational(Fraction(8, 17), Fraction(15, 17)),
)

# (s, c, h): exact rational cosine/sine pairs s/h, c/h for rotation blocks.
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def random_signed_permutation(rng: random.Random, size: int,
                              involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    perm = list(range(size))
    rng.shuffle(perm)
    grid = [[GaussianRational(0)] * size for _ in range(size)]
    for i, j in enumerate(perm):
        grid[i][j] = GaussianRational(rng.choice((1, -1)))
    return Matrix.exact(grid, involution)


def random_unitary(rng: random.Random, size: int,
                   involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    """Exact unitary (orthogonal under transpose involution) rational matrix."""
    u = random_signed_permutation(rng, size, involution)
    if involution == CONJUGATE_TRANSPOSE:
        diag = Matrix.exact([[rng.choice(_UNIT_SCALARS) if i == j else 0
                              for j in range(size)] for i in range(size)])
        u = diag @ u
    for _ in range(rng.randint(0, 2)):
        if size < 2:
            break
        i, j = rng.sample(range(size), 2)
        s, c, h = rng.choice(_PYTHAGOREAN)
        cos, sin = Fraction(c, h), Fraction(s, h)
        grid = [[GaussianRational(1) if r == q else GaussianRational(0)
                 for q in range(size)] for r in range(size)]
        grid[i][i] = GaussianRational(cos)
        grid[j][j] = GaussianRational(cos)
        grid[i][j] = GaussianRational(-sin)
        grid[j][i] = GaussianRational(sin)
        u = Matrix.exact(grid, involution) @ u
    return u


def random_coisometry(rng: random.Random, rows: int, cols: int,
                      involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    """rows x cols exact matrix with A A* = identity (requires cols >= rows)."""
    if cols < rows:
        raise ValueError("a coisometry needs at least as many columns as rows")
    return random_unitary(rng, cols, involution).block(0, 0, rows, cols)


def _random_diagonal_support(rng: random.Random, size: int, involution: str):
    support = [i for i in range(size) if rng.random() < 0.75]
    grid = [[GaussianRational(0)] * size for _ in range(size)]
    for i in support:
        re = random_rational(rng)
        im = random_rational(rng) if involution == CONJUGATE_TRANSPOSE else 0
        entry = GaussianRational(re, im)
        grid[i][i] = entry if entry else GaussianRational(1)
    return Matrix.exact(grid, involution), support


def random_pair(rng: random.Random, size: int, family: str,
                involution: str = CONJUGATE_TRANSPOSE):
    """A square (a, b) satisfying the range and hermitian conditions."""
    if family in ("unitary", "rejection"):
        # an n x n coisometry is unitary
        rect_family = "coisometry" if family == "unitary" else family
        return random_rect_pair(rng, (size, size, size), rect_family, involution)
    if family == "equal":
        a = random_matrix(rng, size, size, EXACT, involution)
        return a, a
    if family == "diagonal":
        a, support = _random_diagonal_support(rng, size, involution)
        grid = [[GaussianRational(0)] * size for _ in range(size)]
        for i in support:
            if rng.random() < 0.8:
                re = random_rational(rng)
                im = random_rational(rng) if involution == CONJUGATE_TRANSPOSE else 0
                grid[i][i] = GaussianRational(re, im)
        return a, Matrix.exact(grid, involution)
    raise ValueError(f"unknown pair family {family!r}; choose from {PAIR_FAMILIES}")


def random_square_instance(rng: random.Random, sign: str, size: int, family: str,
                           force_solvable: bool = True,
                           involution: str = CONJUGATE_TRANSPOSE):
    """(a, b, c) with the hypotheses holding; c forced solvable or random
    with the matching symmetry (so the interesting condition stays in play)."""
    _check_sign(sign)
    a, b = random_pair(rng, size, family, involution)
    return a, b, _random_c(rng, sign, a, b, force_solvable)


def _random_c(rng: random.Random, sign: str, a: Matrix, b: Matrix,
              force_solvable: bool) -> Matrix:
    """c for the pair (a, b): the image of a random x (solvable by
    construction), or a random matrix with the sign's symmetry."""
    if force_solvable:
        return equation_lhs(sign, a, b, random_matrix(rng, a.cols, b.cols, EXACT, a.involution))
    h = random_matrix(rng, a.rows, a.rows, EXACT, a.involution)
    return h.sub(h.star()) if sign == MINUS else h.add(h.star())


def random_sym_instance(rng: random.Random, side: str, size: int,
                        force_solvable: bool = True,
                        involution: str = CONJUGATE_TRANSPOSE):
    """(a, b) for x a* + a x* = b ("right") or a* x + x* a = b ("left").

    An invertible a makes every symmetric b solvable (the squeezed
    projection condition is vacuous), so a is drawn rank-deficient most of
    the time: a zeroed row starves the column space (right side), a zeroed
    column the row space (left side).
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    a = random_matrix(rng, size, size, EXACT, involution)
    if size > 1 and rng.random() < 0.6:
        kill = rng.randrange(size)
        zero_line = Matrix.zeros(1, size, involution, EXACT)
        if side == "right":
            a = a.paste(kill, 0, zero_line)
        else:
            a = a.paste(0, kill, zero_line.star())
    if not force_solvable and rng.random() < 0.25:
        return a, random_matrix(rng, size, size, EXACT, involution)
    general_a, general_b, _ = sym_general_form(side, a, None)
    return a, _random_c(rng, PLUS, general_a, general_b, force_solvable)


def random_rect_pair(rng: random.Random, dims, family: str,
                     involution: str = CONJUGATE_TRANSPOSE):
    """Rectangular (A: m x n, B: m x p) satisfying the standing hypotheses."""
    m, n, p = dims
    if family == "coisometry":
        if n < m:
            raise GenerationError(f"coisometry family needs n >= m, got dims {dims}")
        return (random_coisometry(rng, m, n, involution),
                random_matrix(rng, m, p, EXACT, involution))
    if family == "diagonal":
        rank_cap = min(m, n)
        support = [i for i in range(rank_cap) if rng.random() < 0.75]
        a_grid = [[GaussianRational(0)] * n for _ in range(m)]
        for i in support:
            a_grid[i][i] = GaussianRational(random_rational(rng)) or GaussianRational(1)
        b_grid = [[GaussianRational(0)] * p for _ in range(m)]
        for i in support:
            if i < p and rng.random() < 0.8:
                b_grid[i][i] = GaussianRational(random_rational(rng))
        a = Matrix.exact(a_grid, involution)
        b = Matrix.exact(b_grid, involution)
        u = random_unitary(rng, m, involution)
        v = random_unitary(rng, n, involution)
        w = random_unitary(rng, p, involution)
        return u @ a @ v, u @ b @ w
    if family == "rejection":
        # Dense draws only pass when both A and B have full row rank (so
        # n >= m and p >= m); at other dims the bounded sampler exhausts.
        ring = MatrixRing(m, EXACT, involution)
        for _ in range(_MAX_TRIES):
            a = random_matrix(rng, m, n, EXACT, involution)
            b = random_matrix(rng, m, p, EXACT, involution)
            if check_hypotheses(ring, a, b).ok:
                return a, b
        raise GenerationError(
            f"no hypothesis-satisfying rectangular pair in {_MAX_TRIES} draws at dims {dims}")
    raise ValueError(f"unknown rect family {family!r}; choose from {RECT_FAMILIES}")


def random_rect_instance(rng: random.Random, dims, family: str,
                         force_solvable: bool = True,
                         involution: str = CONJUGATE_TRANSPOSE,
                         sign: str = MINUS) -> RectProblem:
    _check_sign(sign)
    a, b = random_rect_pair(rng, dims, family, involution)
    return RectProblem(a, b, _random_c(rng, sign, a, b, force_solvable))
