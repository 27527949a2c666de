"""Exact instance generators for the solvers, the oracle and the CLI's `gen`.

Every generator produces exact instances that satisfy the solvers'
standing hypotheses by construction; random pairs almost never do at rank
deficiency, so each family seeds structure deliberately.  Only `gen` loads
this module on the command line.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .formats import GenerationError, PAIR_FAMILIES, RECT_FAMILIES
from .matrix import (CONJUGATE_TRANSPOSE, EXACT, Matrix, MatrixRing, random_matrix,
                     random_rational)
from .rect import RectProblem
from .scalars import GaussianRational
from .solvers import MINUS, PLUS, _check_sign, check_hypotheses, equation_lhs, sym_general_form

_MAX_TRIES = 500


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
