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


def gr(re_num, re_den=1, im_num=0, im_den=1):
    """Entry quadruple in the exact file encoding."""
    return [str(re_num), str(re_den), str(im_num), str(im_den)]


def exact_doc_matrix(rows):
    """Nested [[GaussianRational-like]] to the quadruple encoding."""
    from starsolve import formats
    m = Matrix.exact(rows)
    return formats.encode_matrix(m)
