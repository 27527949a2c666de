import random

import pytest

from starsolve.matrix import Matrix


@pytest.fixture
def rng():
    return random.Random(20260817)


@pytest.fixture
def derived():
    """(d, d') of a hypothesis report: the paper's d = (1 - b b') a and
    d' = a'(1 - b b'), which the solvers never form."""
    def build(report):
        return (report.a - report.b_b_dagger @ report.a,
                report.a_dagger - report.a_dagger_b @ report.b_dagger)
    return build


@pytest.fixture
def graded():
    """The exact n x n matrix u diag(2^-floor(s i / (n - 1))) v of condition
    number 2^s, u and v ``random_unitary`` at ``seed`` and ``seed + 100``."""
    from fractions import Fraction
    from starsolve.generate import random_unitary

    def build(n, s, seed):
        diag = Matrix.exact([[Fraction(1, 2 ** (s * i // (n - 1))) if i == j else 0
                              for j in range(n)] for i in range(n)])
        return (random_unitary(random.Random(seed), n) @ diag
                @ random_unitary(random.Random(seed + 100), n))
    return build


def gr(re_num, re_den=1, im_num=0, im_den=1):
    """Entry quadruple in the exact file encoding."""
    return [str(re_num), str(re_den), str(im_num), str(im_den)]


def exact_doc_matrix(rows):
    """Nested [[GaussianRational-like]] to the quadruple encoding."""
    from starsolve import formats
    m = Matrix.exact(rows)
    return formats.encode_matrix(m)
