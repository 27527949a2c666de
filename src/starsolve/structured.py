"""Structured exact matrices for the instance generators.

Signed permutations, unitaries (orthogonal under the transpose involution)
with rational entries, coisometries and sparse diagonals, each built
straight as an integer grid from seeded draws, in the same order as ever,
so seeded instances do not change.  Only the generators of
:mod:`starsolve.generate` use them.
"""

import random

from .draws import random_sixths
from .grids import from_parts
from .matrix import Matrix
from .tags import CONJUGATE_TRANSPOSE


# Unit-modulus Gaussian rationals (re + im i) / d (conjugate-transpose involution).
_UNIT_SCALARS = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (3, 4, 5), (3, -4, 5),
                 (4, 3, 5), (5, 12, 13), (12, -5, 13), (8, 15, 17))

# (s, c, h): exact rational cosine/sine pairs s/h, c/h for rotation blocks.
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def _sparse(rows: int, cols: int, involution: str, entries: dict) -> Matrix:
    """The exact rows x cols matrix holding the Gaussian rationals
    ``(re, im, d)`` of ``entries`` at their ``(i, j)`` keys, zero elsewhere."""
    parts = [[(0, 1, 0, 1)] * cols for _ in range(rows)]
    for (i, j), (x, y, e) in entries.items():
        parts[i][j] = (x, e, y, e)
    return from_parts(rows, cols, involution, parts)


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
