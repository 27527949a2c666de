"""Exact matrices on Gaussian-integer grids, checked entry by entry against
``GaussianRational`` arithmetic, and the fraction-free Gauss-Jordan checked
against the rational elimination it replaced."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve.grids import gauss_jordan
from starsolve.matrix import (CONJUGATE_TRANSPOSE, FLOAT, TRANSPOSE, Matrix, inverse,
                              mp_inverse, random_matrix, rank_factorization)
from starsolve.oracle import linearize, random_square_instance
from starsolve.ring import NotMpInvertibleError
from starsolve.scalars import GR_HALF, GR_ZERO, GaussianRational
from starsolve.solvers import MINUS, PLUS

involutions = st.sampled_from((CONJUGATE_TRANSPOSE, TRANSPOSE))
sizes = st.integers(min_value=0, max_value=4)


@st.composite
def exact_matrices(draw, rows, cols, involution):
    """rows x cols exact matrix; about a third of the parts are zero, and the
    others have small or ~10^30 numerators and denominators."""
    limit = draw(st.sampled_from((9, 10 ** 30)))
    part = st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(-limit, limit), st.integers(1, limit)))
    real = involution == TRANSPOSE
    grid = tuple(tuple(GaussianRational(draw(part), 0 if real else draw(part))
                       for _ in range(cols)) for _ in range(rows))
    return Matrix(rows, cols, grid, involution)


def assert_lowest_terms(m):
    re, im, d = m.grids
    assert d > 0 and math.gcd(d, *(x for row in re + im for x in row)) == 1
    assert len(re) == len(im) == m.rows and all(len(row) == m.cols for row in re + im)


def star_ref(m):
    conj = m.involution == CONJUGATE_TRANSPOSE
    return tuple(tuple(m.entries[i][j].conjugate() if conj else m.entries[i][j]
                       for i in range(m.rows)) for j in range(m.cols))


def entrywise(f, *ms):
    return tuple(tuple(f(*es) for es in zip(*rows)) for rows in zip(*(m.entries for m in ms)))


def product_ref(a, b):
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), GR_ZERO)
                       for j in range(b.cols)) for i in range(a.rows))


def float_bits(z):
    return (z.real.hex(), z.imag.hex())


# -- every exact operation against a GaussianRational reference ---------------------


@given(st.data(), sizes, sizes, sizes, involutions)
@settings(max_examples=150, deadline=None)
def test_exact_operations_match_entrywise_reference(data, rows, cols, inner, involution):
    a = data.draw(exact_matrices(rows, cols, involution))
    b = data.draw(exact_matrices(rows, cols, involution))
    c = data.draw(exact_matrices(cols, inner, involution))
    scalar = data.draw(exact_matrices(1, 1, involution)).entries[0][0]
    cases = [
        (a + b, entrywise(lambda x, y: x + y, a, b)),
        (a - b, entrywise(lambda x, y: x - y, a, b)),
        (-a, entrywise(lambda x: -x, a)),
        (a.half(), entrywise(lambda x: GR_HALF * x, a)),
        (a.scale(scalar), entrywise(lambda x: scalar * x, a)),
        (a.star(), star_ref(a)),
        (a @ c, product_ref(a, c)),
    ]
    if rows and cols:
        r0, c0 = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        h, w = data.draw(st.integers(0, rows - r0)), data.draw(st.integers(0, cols - c0))
        cases.append((a.block(r0, c0, h, w),
                      tuple(row[c0:c0 + w] for row in a.entries[r0:r0 + h])))
        sub = data.draw(exact_matrices(h, w, involution))
        pasted = [list(row) for row in a.entries]
        for i in range(h):
            pasted[r0 + i][c0:c0 + w] = sub.entries[i]
        cases.append((a.paste(r0, c0, sub), tuple(map(tuple, pasted))))
    for result, expected in cases:
        assert_lowest_terms(result)
        assert result.entries == expected
        assert result == Matrix(result.rows, result.cols, expected, involution)
    assert a.equals(b) == (a.entries == b.entries)
    assert a.equals(Matrix(rows, cols, a.entries, involution))
    assert a.is_zero() == all(not e for row in a.entries for e in row)
    assert a.max_abs() == max((abs(e) for row in a.entries for e in row), default=0.0)
    floats = a.to_float()
    assert floats.backend == FLOAT
    assert [[float_bits(z) for z in row] for row in floats.entries] == \
        [[float_bits(complex(e)) for e in row] for row in a.entries]


def test_to_float_is_correctly_rounded_past_53_bits():
    # parts whose numerator and denominator are far beyond 2^53: x / d rounds
    # once, as float(Fraction) does
    big = 10 ** 400
    entries = [GaussianRational(Fraction(big + 1, 3 * big - 7), Fraction(-(2 ** 80 + 1), 2 ** 75)),
               GaussianRational(Fraction(1, 3), Fraction(2 ** 1100 + 1, 2 ** 1100))]
    m = Matrix.exact([entries])
    assert [float_bits(z) for z in m.to_float().entries[0]] == \
        [float_bits(complex(e)) for e in entries]
    assert m.max_abs() == max(abs(e) for e in entries)


# -- one grid per value ------------------------------------------------------------------


@given(st.data(), sizes, sizes, involutions)
@settings(max_examples=60, deadline=None)
def test_equal_values_reached_by_different_routes_are_equal(data, rows, cols, involution):
    x = data.draw(exact_matrices(rows, cols, involution))
    y = data.draw(exact_matrices(cols, rows, involution))
    routes = [(x.half() + x.half(), x),
              (x - x, Matrix.zeros(rows, cols, involution)),
              (x @ y, Matrix(rows, rows, (x @ y).entries, involution)),
              (x.star().star(), x),
              (-(-x), x)]
    for one, other in routes:
        assert one == other and hash(one) == hash(other)
        assert one.grids == other.grids
        assert_lowest_terms(one)
    assert (x - x).grids[2] == 1


def test_grids_are_in_lowest_terms_after_cancellation():
    x = Matrix.exact([[Fraction(1, 6), Fraction(1, 3)]])
    assert x.grids == (((1, 2),), ((0, 0),), 6)
    assert (x + x).grids == (((1, 2),), ((0, 0),), 3)
    assert (x - x).grids == (((0, 0),), ((0, 0),), 1)
    assert Matrix(0, 3, ()).grids == ((), (), 1)
    assert Matrix.zeros(2, 0).star().shape == (0, 2)
    assert Matrix(0, 3, ()).star().grids == (((),) * 3, ((),) * 3, 1)


def test_exact_operations_build_no_fraction(monkeypatch):
    rng = random.Random(10)
    a, b = random_matrix(rng, 5, 5), random_matrix(rng, 5, 5)
    scalar = GaussianRational(1, 2)
    calls = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    results = [a @ b, a + b, a - b, -a, a.star(), a.half(), a.scale(scalar),
               a.block(1, 1, 3, 2), a.paste(0, 0, b.block(0, 0, 2, 2)), a.to_float(),
               inverse(a), mp_inverse(a), *rank_factorization(a)[:2]]
    verdicts = [(a - a).is_zero(), a.equals(b), a == b, hash(a), a.max_abs()]
    assert calls == []
    assert len(results) == 14 and len(verdicts) == 5
    results[0].entries  # the per-entry view builds Fractions, and the patch counts them
    assert calls


# -- fraction-free Gauss-Jordan against the rational elimination -------------------------


def rational_gauss_jordan(grid, ncols):
    """The exact elimination the fraction-free one replaced: divide the pivot
    row by its pivot, subtract multiples of it from every other row."""
    pivots = []
    nrows = len(grid)
    for pc in range(ncols):
        pr = len(pivots)
        if pr >= nrows:
            break
        sel = next((i for i in range(pr, nrows) if grid[i][pc]), None)
        if sel is None:
            continue
        grid[pr], grid[sel] = grid[sel], grid[pr]
        piv = grid[pr][pc]
        prow = grid[pr] = [e / piv for e in grid[pr]]
        for i in range(nrows):
            if i == pr:
                continue
            f = grid[i][pc]
            if f:
                grid[i] = [e - f * p for e, p in zip(grid[i], prow)]
        pivots.append(pc)
    return pivots


def integer_rows(grid):
    """Each row of a Fraction or GaussianRational grid scaled to Gaussian
    integers: ``(re, im)`` int lists."""
    rows = []
    for row in grid:
        parts = [(e, Fraction(0)) if isinstance(e, Fraction) else (e.re, e.im) for e in row]
        d = math.lcm(*(p.denominator for pair in parts for p in pair))
        rows.append(([re.numerator * (d // re.denominator) for re, _ in parts],
                     [im.numerator * (d // im.denominator) for _, im in parts]))
    return rows


def assert_same_elimination(grid, ncols):
    """Pivots, the rows up to the rank, and which later entries are nonzero
    (in particular which right-hand sides: what oracle_solve reads) agree;
    returns the pivots and the reduced integer rows."""
    expected = [list(row) for row in grid]
    expected_pivots = rational_gauss_jordan(expected, ncols)
    rows = integer_rows(grid)
    pivots = gauss_jordan(rows, ncols)
    assert pivots == expected_pivots
    real = all(isinstance(e, Fraction) for row in grid for e in row)
    for r, ((re, im, den), want) in enumerate(zip(rows, expected)):
        assert den > 0
        if r < len(pivots):
            got = [Fraction(x, den) if real else
                   GaussianRational(Fraction(x, den), Fraction(u, den)) for x, u in zip(re, im)]
            assert got == want
        else:
            assert [bool(x or u) for x, u in zip(re, im)] == [bool(e) for e in want]
    return pivots, rows


def drawn_grid(rng, nrows, width, rank, real, big=False):
    """nrows x width GaussianRational grid of rank at most ``rank``: a product
    of random nrows x rank and rank x width factors."""
    def factor(r, c):
        def part():
            num = rng.randint(-6, 6) * (10 ** 25 if big else 1)
            return Fraction(num, rng.choice((1, 2, 3, 7)))
        return Matrix.exact([[GaussianRational(part(), 0 if real else part()) for _ in range(c)]
                             for _ in range(r)]) if r else Matrix(0, c, ())
    if rank == 0:
        return [[GR_ZERO] * width for _ in range(nrows)]
    return [list(row) for row in (factor(nrows, rank) @ factor(rank, width)).entries]


@pytest.mark.parametrize("real", (False, True))
def test_fraction_free_matches_rational_elimination_on_matrix_grids(real):
    rng = random.Random(f"gj-{real}")
    ranks = []
    for trial in range(150):
        nrows, width = rng.randint(1, 6), rng.randint(1, 7)
        rank = rng.randint(0, min(nrows, width))
        grid = drawn_grid(rng, nrows, width, rank, real, big=trial % 5 == 0)
        ranks.append(len(assert_same_elimination(grid, rng.randint(0, width))[0]))
    assert 0 in ranks and max(ranks) >= 5


@pytest.mark.parametrize("real", (False, True))
def test_fraction_free_matches_rational_elimination_on_augmented_grids(real):
    # [m | rhs]: consistent right-hand sides, and inconsistent ones whose rows
    # past the rank are nonzero in the right-hand side only
    rng = random.Random(f"aug-{real}")
    inconsistent = 0
    for _ in range(80):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        grid = drawn_grid(rng, nrows, ncols + 1, rng.randint(0, min(nrows, ncols)), real)
        if rng.random() < 0.5:
            for row in grid:
                row[-1] = GaussianRational(rng.randint(-3, 3), 0 if real else rng.randint(-3, 3))
        pivots, rows = assert_same_elimination(grid, ncols)
        inconsistent += any(re[ncols] or im[ncols] for re, im, _ in rows[len(pivots):])
    assert inconsistent


def test_fraction_free_on_all_zero_and_empty_grids():
    for nrows, width in ((1, 1), (3, 4), (2, 0), (0, 3)):
        pivots, _ = assert_same_elimination([[GR_ZERO] * width for _ in range(nrows)], width)
        assert pivots == []


def test_fraction_free_keeps_gaussian_rows_small():
    # [m | I] with m a random complex 16 x 16 of rank 8: the 8 rows past the
    # rank are left unnormalized.  Divided by the pivot of their last update,
    # their parts stay minors of the grid; divided by an integer gcd alone,
    # Gaussian factors of the pivots would pile up into thousands of bits.
    rng = random.Random(16)
    m = random_matrix(rng, 16, 8) @ random_matrix(rng, 8, 16)
    grid = [list(row) + [GaussianRational(int(i == j)) for j in range(16)]
            for i, row in enumerate(m.entries)]
    pivots, rows = assert_same_elimination(grid, 16)
    assert len(pivots) == 8
    assert 0 < max(abs(x).bit_length() for re, im, _ in rows[8:] for x in re + im) < 300


@pytest.mark.parametrize("sign", (MINUS, PLUS))
@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
@pytest.mark.parametrize("forced", (True, False))
def test_fraction_free_matches_rational_elimination_on_oracle_grids(sign, involution, forced):
    for seed in range(3):
        a, b, c = random_square_instance(random.Random(seed), sign, 3, "unitary", forced,
                                         involution)
        system = linearize(sign, a, b, c)
        grid = [[Fraction(v) for v in (*row, value)]
                for row, value in zip(system.matrix, system.rhs)]
        assert_same_elimination(grid, len(system.col_index))


@given(st.data(), st.integers(1, 4), st.integers(1, 4), involutions)
@settings(max_examples=60, deadline=None)
def test_rank_factorization_and_inverse_match_rational_elimination(data, rows, cols, involution):
    m = data.draw(exact_matrices(rows, cols, involution))
    expected = [list(row) for row in m.entries]
    pivots = rational_gauss_jordan(expected, cols)
    factor_f, factor_g, r = rank_factorization(m)
    assert r == len(pivots)
    assert factor_g.entries == tuple(map(tuple, expected[:r]))
    assert factor_f.entries == tuple(tuple(row[c] for c in pivots) for row in m.entries)
    for factor in (factor_f, factor_g):
        assert_lowest_terms(factor)
    if rows == cols:
        if r < rows:
            with pytest.raises(NotMpInvertibleError):
                inverse(m)
        else:
            assert inverse(m) @ m == Matrix.identity(rows, involution)
            assert inverse(m) == mp_inverse(m)
