"""Seeded random matrices: the draws of the solution samples and the generators.

Every draw takes its ``random.Random`` from the caller, so a seed fixes the
matrix.  ``SolutionFamily.sample`` imports this module on first use, so a
CLI process that draws nothing (``check``, ``verify``, ``mp``) never
compiles it; the structured draws of the generators live in
:mod:`starsolve.structured`.
"""

import random

from .matrix import Matrix, unchecked
from .tags import CONJUGATE_TRANSPOSE, EXACT, TRANSPOSE, _check_header


def random_sixths(rng: random.Random) -> int:
    """A small random rational r as the integer 6 r: numerator in [-9, 9]
    (``randint``), then denominator in {1, 2, 3} (``choice``)."""
    numerator = rng.randint(-9, 9)
    return numerator * (6 // rng.choice((1, 2, 3)))


def random_matrix(rng: random.Random, rows: int, cols: int,
                  backend: str = EXACT, involution: str = CONJUGATE_TRANSPOSE) -> Matrix:
    """Random entries drawn row by row, real part then imaginary part (none
    under the transpose involution): exact ones by :func:`random_sixths`,
    straight into a grid over the denominator 6; float ones uniform in
    [-1, 1]."""
    real_only = involution == TRANSPOSE
    if backend == EXACT:
        from .grids import from_grids  # the exact arithmetic, which a float run never loads
        draws = [[(random_sixths(rng), 0 if real_only else random_sixths(rng))
                  for _ in range(cols)] for _ in range(rows)]
        return from_grids(rows, cols, involution, [[x for x, _ in row] for row in draws],
                          [[y for _, y in row] for row in draws], 6)
    _check_header(rows, cols, involution, backend)  # the draws are finite and fit the tags
    grid = tuple(tuple(complex(rng.uniform(-1.0, 1.0),
                               0.0 if real_only else rng.uniform(-1.0, 1.0))
                       for _ in range(cols)) for _ in range(rows))
    return unchecked(rows, cols, involution, backend, grid)
