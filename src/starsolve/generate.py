"""Exact instance generators for the solvers, the oracle and the CLI's `gen`.

Every generator produces exact instances that satisfy the solvers'
standing hypotheses by construction; random pairs almost never do at rank
deficiency, so each family seeds structure deliberately.  Every matrix is
built straight as an integer grid, with no per-entry scalar, from the same
draws in the same order as ever, so seeded instances do not change.  Only
`gen` loads this module on the command line.
"""

import math
import random

from .formats import GenerationError, PAIR_FAMILIES, RECT_FAMILIES
from .matrix import (CONJUGATE_TRANSPOSE, EXACT, Matrix, MatrixRing, from_grids,
                     random_matrix, random_sixths)
from .rect import RectProblem
from .solvers import MINUS, PLUS, _check_sign, check_hypotheses, equation_lhs, sym_general_form

_MAX_TRIES = 500


# Square pair families (all exact, all satisfying the standing hypotheses):
#   unitary   a unitary/orthogonal with rational entries, b arbitrary
#   equal     b = a
#   diagonal  commuting real/complex diagonals with support(b) inside support(a)
#   rejection bounded rejection sampling of dense pairs
# unitary and rejection are the rect coisometry and rejection pairs at (n, n, n).
# The family names PAIR_FAMILIES and RECT_FAMILIES live in formats.py.

# Unit-modulus Gaussian rationals (re + im i) / d (conjugate-transpose involution).
_UNIT_SCALARS = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (3, 4, 5), (3, -4, 5),
                 (4, 3, 5), (5, 12, 13), (12, -5, 13), (8, 15, 17))

# (s, c, h): exact rational cosine/sine pairs s/h, c/h for rotation blocks.
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def _sparse(rows: int, cols: int, involution: str, entries: dict) -> Matrix:
    """The exact rows x cols matrix holding the Gaussian rationals
    ``(re, im, d)`` of ``entries`` at their ``(i, j)`` keys, zero elsewhere."""
    d = math.lcm(*(e for _, _, e in entries.values()))
    re = [[0] * cols for _ in range(rows)]
    im = [[0] * cols for _ in range(rows)]
    for (i, j), (x, y, e) in entries.items():
        re[i][j], im[i][j] = x * (d // e), y * (d // e)
    return from_grids(rows, cols, involution, re, im, d)


def _random_sixths_entry(rng: random.Random, involution: str) -> tuple:
    """A random diagonal entry over 6: real part, then imaginary part except
    under the transpose involution."""
    re = random_sixths(rng)
    return re, (random_sixths(rng) if involution == CONJUGATE_TRANSPOSE else 0), 6


def random_signed_permutation(rng: random.Random, size: int,
                              involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    perm = list(range(size))
    rng.shuffle(perm)
    return _sparse(size, size, involution,
                   {(i, j): (rng.choice((1, -1)), 0, 1) for i, j in enumerate(perm)})


def random_unitary(rng: random.Random, size: int,
                   involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    """Exact unitary (orthogonal under transpose involution) rational matrix."""
    u = random_signed_permutation(rng, size, involution)
    if involution == CONJUGATE_TRANSPOSE:
        diag = _sparse(size, size, involution,
                       {(i, i): rng.choice(_UNIT_SCALARS) for i in range(size)})
        u = diag @ u
    for _ in range(rng.randint(0, 2)):
        if size < 2:
            break
        i, j = rng.sample(range(size), 2)
        s, c, h = rng.choice(_PYTHAGOREAN)  # the rotation by cos = c/h, sin = s/h
        entries = {(r, r): (1, 0, 1) for r in range(size)}
        entries.update({(i, i): (c, 0, h), (j, j): (c, 0, h), (i, j): (-s, 0, h),
                        (j, i): (s, 0, h)})
        u = _sparse(size, size, involution, entries) @ u
    return u


def random_coisometry(rng: random.Random, rows: int, cols: int,
                      involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    """rows x cols exact matrix with A A* = identity (requires cols >= rows)."""
    if cols < rows:
        raise ValueError("a coisometry needs at least as many columns as rows")
    return random_unitary(rng, cols, involution).block(0, 0, rows, cols)


def _random_diagonal_support(rng: random.Random, size: int, involution: str):
    support = [i for i in range(size) if rng.random() < 0.75]
    entries = {}
    for i in support:
        re, im, d = _random_sixths_entry(rng, involution)
        entries[i, i] = (re, im, d) if re or im else (1, 0, 1)
    return _sparse(size, size, involution, entries), support


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
        entries = {}
        for i in support:
            if rng.random() < 0.8:
                entries[i, i] = _random_sixths_entry(rng, involution)
        return a, _sparse(size, size, involution, entries)
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
        a_entries, b_entries = {}, {}
        for i in support:
            x = random_sixths(rng)
            a_entries[i, i] = (x, 0, 6) if x else (1, 0, 1)
        for i in support:
            if i < p and rng.random() < 0.8:
                b_entries[i, i] = (random_sixths(rng), 0, 6)
        a = _sparse(m, n, involution, a_entries)
        b = _sparse(m, p, involution, b_entries)
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
