import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starsolve.scalars import (GR_HALF, GR_I, GR_ONE, GR_ZERO,
                               GaussianRational, as_fraction)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_construction_and_parts():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-3, 4)
    assert not z.is_real
    assert GaussianRational(Fraction(7)).is_real


def test_pinned_arithmetic():
    i = GR_I
    assert i * i == GaussianRational(Fraction(-1))
    assert (GR_ONE + i) * (GR_ONE - i) == GaussianRational(Fraction(2))
    z = GaussianRational(Fraction(3), Fraction(4))
    assert z.conjugate() == GaussianRational(Fraction(3), Fraction(-4))
    assert abs(z) == pytest.approx(5.0)
    assert complex(z) == 3 + 4j
    assert z * z.conjugate() == GaussianRational(Fraction(25))


def test_division():
    z = GaussianRational(Fraction(1), Fraction(1))
    w = GaussianRational(Fraction(0), Fraction(2))
    assert z / w == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        z / GR_ZERO


def test_half_constant():
    assert GR_HALF + GR_HALF == GR_ONE


def test_copy_and_pickle_round_trip():
    z = GaussianRational(Fraction(1, 3), Fraction(-7, 2))
    for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
        assert twin == z and (twin.re, twin.im) == (z.re, z.im)


def test_as_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_fraction("1/3")


def test_bool_is_not_an_exact_rational():
    with pytest.raises(TypeError, match="bool"):
        as_fraction(True)
    with pytest.raises(TypeError, match="bool"):
        GaussianRational(False)
    with pytest.raises(TypeError):
        GR_ONE * True
    assert GR_ONE != True  # noqa: E712


@given(gaussians, gaussians, gaussians)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == GR_ZERO
    assert a * GR_ONE == a


@given(gaussians, gaussians)
def test_conjugation_is_a_ring_involution(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert a.conjugate().conjugate() == a


@given(gaussians)
def test_nonzero_elements_invert(a):
    if a == GR_ZERO:
        return
    assert a * (GR_ONE / a) == GR_ONE
