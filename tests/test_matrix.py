import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starsolve import matrix, parse
from starsolve.draws import random_matrix
from starsolve.formats import FormatError
from starsolve.grids import from_grids
from starsolve.ring import MatrixRing, NotMpInvertibleError
from starsolve.matrix import Matrix, inverse, mp_inverse, rank_factorization
from starsolve.penrose import is_mp_inverse
from starsolve.scalars import GaussianRational
from starsolve.tags import (BACKENDS, CONJUGATE_TRANSPOSE, EXACT, FLOAT, RTOL, TRANSPOSE,
                            ShapeMismatchError, tolerance)

I = GaussianRational(Fraction(0), Fraction(1))

involutions = st.sampled_from((CONJUGATE_TRANSPOSE, TRANSPOSE))
seeds = st.integers(min_value=0, max_value=10**6)
dims = st.integers(min_value=1, max_value=4)


# -- construction and validation -------------------------------------------


def test_exact_construction_coerces_ints():
    m = Matrix.exact([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.entries[1][0] == GaussianRational(Fraction(3))
    assert m.backend == EXACT


def test_transpose_involution_rejects_complex_entries():
    with pytest.raises(ValueError):
        Matrix.exact([[I]], involution=TRANSPOSE)
    with pytest.raises(ValueError):
        Matrix.floating([[1j]], involution=TRANSPOSE)


def test_bool_entries_are_refused_on_both_backends():
    for build in (Matrix.exact, Matrix.floating):
        with pytest.raises(TypeError, match="bool"):
            build([[True, 2]])
    with pytest.raises(TypeError, match="bool"):
        Matrix.exact([[1]]).scale(False)


def test_float_construction_rejects_nan():
    with pytest.raises(ValueError):
        Matrix.floating([[float("nan")]])


def test_shape_mismatch_raises():
    a = Matrix.exact([[1, 2]])
    b = Matrix.exact([[1], [2]])
    with pytest.raises(ShapeMismatchError):
        a.add(b)
    with pytest.raises(ShapeMismatchError):
        b.mul(b)
    with pytest.raises(ShapeMismatchError):
        a.sub(b)
    with pytest.raises(ShapeMismatchError, match="square"):
        inverse(a)
    assert (a @ b).shape == (1, 1)


def test_matrix_value_semantics():
    a = Matrix.exact([[1, 2], [3, 4]])
    same = Matrix(2, 2, a.entries)
    assert a == same and hash(a) == hash(same)
    assert a != Matrix.exact([[1, 2], [3, 5]])
    assert a != "a matrix"
    # empty grids differ in their tags alone
    empty = Matrix(0, 0, ())
    assert empty == Matrix(0, 0, (), CONJUGATE_TRANSPOSE, EXACT)
    assert empty != Matrix(0, 0, (), TRANSPOSE)
    assert empty != Matrix(0, 0, (), backend=FLOAT)
    assert a != a.to_float()
    f = a.to_float()
    for m in (a, f):
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and twin.entries == m.entries
    with pytest.raises(AttributeError):
        a.rows = 3
    with pytest.raises(AttributeError):
        del a.entries
    assert a.rows == 2 and a.entries == same.entries


def test_matrix_constructor_errors():
    with pytest.raises(ShapeMismatchError):
        Matrix(2, 2, ((GaussianRational(1),) * 2,))
    with pytest.raises(ShapeMismatchError):
        Matrix(-1, 0, ())
    with pytest.raises(ValueError, match="unknown backend"):
        Matrix(0, 0, (), backend="quad")
    with pytest.raises(ValueError, match="unknown involution"):
        Matrix(0, 0, (), involution="adjoint")
    with pytest.raises(ValueError, match="all-real"):
        Matrix(1, 1, ((I,),), TRANSPOSE)


# One refusal table for every validating constructor.  A row is one outside
# value: as a float entry, as an exact entry, as its (re, im) parts (a
# from_grids grid over 1, a float file's [re, im] pair), and the involution.
REFUSALS = {
    "nan": (math.nan, math.nan, (math.nan, 0), CONJUGATE_TRANSPOSE),
    "inf": (math.inf, math.inf, (math.inf, 0), CONJUGATE_TRANSPOSE),
    "modulus_overflow": (complex(1.7e308, 1.7e308), complex(1.7e308, 1.7e308), (1.7e308, 1.7e308),
                         CONJUGATE_TRANSPOSE),
    "bool": (True, True, (True, 0), CONJUGATE_TRANSPOSE),
    "str": ("x", "x", ("x", 0), CONJUGATE_TRANSPOSE),
    "complex_under_transpose": (1j, I, (0, 1), TRANSPOSE),
}

# name: (backend, build from a row); decode_matrix reads a float file
CONSTRUCTORS = {
    "Matrix(...) float": (FLOAT, lambda f, e, parts, inv: Matrix(1, 1, ((f,),), inv, FLOAT)),
    "Matrix.floating": (FLOAT, lambda f, e, parts, inv: Matrix.floating([[f]], inv)),
    "Matrix(...) exact": (EXACT, lambda f, e, parts, inv: Matrix(1, 1, ((e,),), inv, EXACT)),
    "Matrix.exact": (EXACT, lambda f, e, parts, inv: Matrix.exact([[e]], inv)),
    "from_grids": (EXACT, lambda f, e, parts, inv: from_grids(1, 1, inv, [[parts[0]]],
                                                              [[parts[1]]], 1)),
    "decode_matrix": (None, lambda f, e, parts, inv: parse.decode_matrix([[list(parts)]],
                                                                           FLOAT, inv)),
}


@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
@pytest.mark.parametrize("row", sorted(REFUSALS))
def test_every_validating_constructor_refuses(row, constructor):
    backend, build = CONSTRUCTORS[constructor]
    if backend is None:
        expected = FormatError
    elif row == "complex_under_transpose":
        expected = ValueError
    elif backend == EXACT or row in ("bool", "str"):
        expected = TypeError  # an exact matrix takes no float, bool or str
    else:
        expected = ValueError
    with pytest.raises(Exception) as info:
        build(*REFUSALS[row])
    assert type(info.value) is expected, info.value


def test_from_grids_checks_shape_and_denominator():
    assert from_grids(1, 1, CONJUGATE_TRANSPOSE, [[2]], [[4]], 6).grids == (((1,),), ((2,),), 3)
    with pytest.raises(ShapeMismatchError):
        from_grids(2, 1, CONJUGATE_TRANSPOSE, [[1]], [[0]], 1)
    with pytest.raises(ShapeMismatchError):
        from_grids(1, 1, CONJUGATE_TRANSPOSE, [[1]], [[0, 0]], 1)
    for d in (0, -2):
        with pytest.raises(ValueError, match="denominator must be positive"):
            from_grids(1, 1, CONJUGATE_TRANSPOSE, [[1]], [[0]], d)


def test_constructor_takes_entries_as_exact_and_floating_do():
    rows = ((3, Fraction(-1, 2)), (GaussianRational(Fraction(2, 3), 1), 0))
    m = Matrix(2, 2, rows)
    assert m == Matrix.exact(rows)
    assert m.grids == (((18, -3), (4, 0)), ((0, 0), (6, 0)), 6)
    assert m.entries[1][0] == GaussianRational(Fraction(2, 3), 1)
    f = Matrix(1, 2, ((1, 2.5),), backend=FLOAT)
    assert f == Matrix.floating([[1, 2.5]])
    assert [type(z) for z in f.entries[0]] == [complex, complex]


def test_copy_and_pickle_keep_an_overflowed_float_entry():
    # a copy is the same value, built unchecked like the arithmetic result it is
    big = Matrix.floating([[1e308, 1.0]])
    m = big + big
    assert m.entries[0][0] == complex(math.inf, 0.0)
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and twin.entries == m.entries
    assert math.isnan(pickle.loads(pickle.dumps(m - m)).entries[0][0].real)


def test_mixed_tags_raise():
    a = Matrix.exact([[1]])
    f = Matrix.floating([[1.0]])
    t = Matrix.exact([[1]], involution=TRANSPOSE)
    with pytest.raises(ValueError):
        a.add(f)
    with pytest.raises(ValueError):
        a.add(t)


# -- one checking rule: an operation checks its arguments, never its result ----


def test_empty_results_keep_their_shape():
    for backend in BACKENDS:
        m = Matrix.zeros(0, 3, backend=backend)
        results = (m.neg(), m.add(m), m.sub(m), m.half(), m.scale(2),
                   m.paste(0, 1, Matrix.zeros(0, 2, backend=backend)))
        assert [r.shape for r in results] == [(0, 3)] * 6, backend
        assert m.star().shape == (3, 0)
        assert (m @ Matrix.zeros(3, 2, backend=backend)).shape == (0, 2)
        assert m.block(0, 1, 0, 2).shape == (0, 2)


def test_block_refuses_negative_sizes():
    for backend in BACKENDS:
        m = Matrix.identity(3, backend=backend)
        for rows, cols in ((-1, 1), (1, -1)):
            with pytest.raises(ShapeMismatchError):
                m.block(0, 0, rows, cols)


def test_paste_refuses_negative_offsets():
    for backend in BACKENDS:
        m, sub = Matrix.zeros(3, 3, backend=backend), Matrix.identity(1, backend=backend)
        for row0, col0 in ((-1, 0), (0, -1)):
            with pytest.raises(ShapeMismatchError):
                m.paste(row0, col0, sub)


def test_transpose_scale_refuses_a_non_real_scalar():
    for backend, i in ((EXACT, I), (FLOAT, 1j)):
        for m in (Matrix.identity(2, TRANSPOSE, backend), Matrix.zeros(2, 2, TRANSPOSE, backend)):
            with pytest.raises(ValueError, match="transpose involution requires all-real entries"):
                m.scale(i)
        assert Matrix.identity(2, backend=backend).scale(i).entries[0][0] == i


def test_arithmetic_results_skip_the_validating_constructor(monkeypatch):
    operands = [(random_matrix(random.Random(4), 3, 3, be), random_matrix(random.Random(5), 3, 2, be))
                for be in BACKENDS]

    def refuse(self, *args):
        raise AssertionError("arithmetic result built through Matrix.__init__")

    monkeypatch.setattr(Matrix, "__init__", refuse)
    for m, r in operands:
        exact_only = (inverse(m), *rank_factorization(r)[:2]) if m.backend == EXACT else ()
        for result in (m + m, m - m, -m, m @ r, m.star(), m.scale(3), m.half(),
                       m.block(0, 1, 2, 2), m.paste(1, 1, r.block(0, 0, 2, 2)), m.to_float(),
                       mp_inverse(r), *exact_only):
            assert result.backend in BACKENDS


# -- star, blocks, equality --------------------------------------------------


def test_star_conjugate_transpose():
    m = Matrix.exact([[I, 1], [0, 2 * GaussianRational(Fraction(1))]])
    s = m.star()
    assert s.entries[0][0] == -I
    assert s.entries[1][0] == GaussianRational(Fraction(1))


def test_star_plain_transpose_keeps_entries():
    m = Matrix.exact([[1, 2], [3, 4]], involution=TRANSPOSE)
    s = m.star()
    assert s.entries[0][1] == GaussianRational(Fraction(3))


def float_bits(grid):
    return [[(e.real.hex(), e.imag.hex()) for e in row] for row in grid]


@pytest.mark.parametrize("shape", ((0, 3), (3, 0), (0, 0), (1, 4), (3, 2)))
@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
def test_float_star_is_the_entrywise_involution(shape, involution):
    rows, cols = shape
    m = random_matrix(random.Random(rows * 10 + cols), rows, cols, FLOAT, involution)
    if rows and cols:  # a signed zero, whose sign bits must survive too
        m = m.paste(0, 0, Matrix.floating([[complex(-0.0, 0.0)]], involution))
    conj = involution == CONJUGATE_TRANSPOSE
    expected = [[m.entries[i][j].conjugate() if conj else m.entries[i][j] for i in range(rows)]
                for j in range(cols)]
    s = m.star()
    assert s.shape == (cols, rows)
    assert float_bits(s.entries) == float_bits(expected)


def test_block_paste_roundtrip():
    m = Matrix.exact([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    sub = m.block(1, 0, 2, 2)
    assert sub.entries[0][0] == GaussianRational(Fraction(4))
    back = Matrix.zeros(3, 3).paste(1, 0, sub)
    assert back.entries[2][1] == GaussianRational(Fraction(8))
    assert back.entries[0][0] == GaussianRational(Fraction(0))


@pytest.mark.parametrize("row", ([0.0, 1e300], [1e300, 0.0]))
def test_max_abs_sees_nan_in_any_position(row):
    big = Matrix.floating([row]).scale(1e300)   # [[0, inf]] or [[inf, 0]]
    nan = big.sub(big)                          # inf - inf = nan
    assert math.isnan(nan.max_abs())
    assert not nan.is_zero(1e-9)


def test_to_float_matches_entries():
    m = Matrix.exact([[Fraction(1, 4), I]])
    f = m.to_float()
    assert f.backend == FLOAT
    assert f.entries[0][0] == 0.25 + 0j
    assert f.entries[0][1] == 1j


# -- exact products ------------------------------------------------------------

PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def schoolbook_product(a, b):
    """Entry grid of a @ b by per-entry GaussianRational sums of products."""
    return tuple(tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)),
                           GaussianRational(0))
                       for j in range(b.cols))
                 for i in range(a.rows))


def drawn_matrix(rng, rows, cols, involution, big):
    """Random exact matrix whose nonzero parts have distinct prime
    denominators, with numerators near +-10^400 when ``big``, and one row
    and one column zeroed when there are any."""
    dens = iter(rng.sample(PRIMES, 2 * rows * cols))

    def part():
        num, den = rng.randint(-9, 9), next(dens)
        if big:
            num += rng.choice((-1, 1)) * 10 ** 400
        return Fraction(num, den) if rng.random() < 0.8 else Fraction(0)

    real = involution == TRANSPOSE
    grid = [[GaussianRational(part(), 0 if real else part()) for _ in range(cols)]
            for _ in range(rows)]
    if rows and cols:
        zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
        grid[zero_row] = [0] * cols
        for row in grid:
            row[zero_col] = 0
    return Matrix.exact(grid, involution) if rows else Matrix(0, cols, (), involution)


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
@pytest.mark.parametrize("big", (False, True))
def test_exact_product_matches_schoolbook_sum(involution, big):
    rng = random.Random(f"{involution}-{big}")
    for _ in range(60):
        rows, inner, cols = (rng.randint(0, 4) for _ in range(3))
        a = drawn_matrix(rng, rows, inner, involution, big)
        b = drawn_matrix(rng, inner, cols, involution, big)
        product = a @ b
        assert product.shape == (rows, cols)
        assert product.entries == schoolbook_product(a, b)


# -- inverse and MP-inverse ---------------------------------------------------


def test_inverse_pinned():
    m = Matrix.exact([[1, 2], [3, 4]])
    inv = inverse(m)
    assert m @ inv == Matrix.identity(2)
    with pytest.raises(NotMpInvertibleError):
        inverse(Matrix.exact([[1, 2], [2, 4]]))


def test_mp_inverse_pinned_rank_one():
    # rank-1 symmetric real example: dagger = m / 25
    m = Matrix.exact([[1, 2], [2, 4]], involution=TRANSPOSE)
    d = mp_inverse(m)
    expected = Matrix.exact([[Fraction(1, 25), Fraction(2, 25)],
                             [Fraction(2, 25), Fraction(4, 25)]],
                            involution=TRANSPOSE)
    assert d == expected


def test_mp_inverse_scalar_imaginary():
    m = Matrix.exact([[I]])
    assert mp_inverse(m).entries[0][0] == -I


def test_mp_inverse_zero_matrix():
    z = Matrix.zeros(2, 3)
    assert mp_inverse(z).shape == (3, 2)
    assert mp_inverse(z).is_zero()


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
@pytest.mark.parametrize("shape", ((2, 3), (3, 2), (1, 1)))
def test_float_mp_inverse_zero_matrix(shape, involution):
    # rank 0: the zero matrix, with unsigned zeros as in every float result
    rows, cols = shape
    d = mp_inverse(Matrix.zeros(rows, cols, involution, FLOAT))
    assert d == Matrix.zeros(cols, rows, involution, FLOAT)
    assert all(math.copysign(1.0, part) == 1.0
               for row in d.entries for e in row for part in (e.real, e.imag))


def test_mp_inverse_same_matrix_under_both_involutions_differs():
    # [[i]] is conj-normal but transpose requires real entries; use a real
    # rank-deficient pair instead and check both dagger computations agree
    m_conj = Matrix.exact([[1, 1], [0, 0]])
    m_tr = Matrix.exact([[1, 1], [0, 0]], involution=TRANSPOSE)
    assert mp_inverse(m_conj).to_float().entries == mp_inverse(m_tr).to_float().entries


def test_rank_factorization_shapes():
    m = Matrix.exact([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    f, g, r = rank_factorization(m)
    assert r == 2
    assert f.shape == (3, 2) and g.shape == (2, 3)
    assert f @ g == m


def test_nilpotent_matrix_mp_inverse():
    m = Matrix.exact([[0, 1], [0, 0]])
    d = mp_inverse(m)
    assert d == Matrix.exact([[0, 0], [1, 0]])


@given(seeds, dims, dims, involutions)
@settings(max_examples=60, deadline=None)
def test_penrose_equations_exact(seed, rows, cols, involution):
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, EXACT, involution)
    d = mp_inverse(m)
    assert m @ d @ m == m
    assert d @ m @ d == d
    assert (m @ d).star() == m @ d
    assert (d @ m).star() == d @ m


@given(seeds, dims, dims, involutions)
@settings(max_examples=40, deadline=None)
def test_penrose_equations_float(seed, rows, cols, involution):
    rng = random.Random(seed)
    m = random_matrix(rng, rows, cols, FLOAT, involution)
    d = mp_inverse(m)
    tol = 1e-9 * (1.0 + m.max_abs() + d.max_abs())
    assert (m @ d @ m).sub(m).max_abs() <= tol
    assert (d @ m @ d).sub(d).max_abs() <= tol
    assert (m @ d).star().sub(m @ d).max_abs() <= tol
    assert (d @ m).star().sub(d @ m).max_abs() <= tol


@given(seeds, dims, st.integers(min_value=0, max_value=2), involutions)
@settings(max_examples=40, deadline=None)
def test_full_column_rank_mp_inverse_matches_the_general_route(seed, cols, extra, involution):
    # At full column rank G is the identity, so (F* m)^-1 F* is G* (F* m G*)^-1 F*.
    m = random_matrix(random.Random(seed), cols + extra, cols, EXACT, involution)
    factor_f, factor_g, r = rank_factorization(m)
    assume(r == cols)
    assert factor_g == Matrix.identity(cols, involution)
    general = factor_g.star() @ inverse(factor_f.star() @ m @ factor_g.star()) @ factor_f.star()
    assert mp_inverse(m) == general


def test_mp_inverse_unique_exact(rng):
    # the Penrose equations pin the MP-inverse down uniquely
    for _ in range(10):
        m = random_matrix(rng, 3, 2)
        assert is_mp_inverse(m, mp_inverse(m))


def test_float_graded_diagonal_inverts():
    # rank 2: the pivot norm 1e-8 is far above tolerance(PIVOT_RTOL, m); a
    # Gram core m* m would have put 1e-16 against that threshold instead
    m = Matrix.floating([[1.0, 0.0], [0.0, 1e-8]])
    d = mp_inverse(m)
    assert is_mp_inverse(m, d)
    expected = Matrix.floating([[1.0, 0.0], [0.0, 1e8]])
    assert (d - expected).is_zero(tolerance(RTOL, d, expected))


def test_float_tiny_scalar_inverts():
    # the rank threshold scales with m alone, so 1e-20 is no zero
    d, expected = mp_inverse(Matrix.floating([[1e-20]])), Matrix.floating([[1e20]])
    assert (d - expected).is_zero(tolerance(RTOL, d, expected))
    tiny = Matrix.exact([[Fraction(1, 10 ** 20)]])
    assert inverse(tiny) == Matrix.exact([[10 ** 20]])


def test_elimination_refuses_a_float_matrix():
    # a float matrix has no exact rank; its MP-inverse takes the orthogonal route
    m = Matrix.identity(2, backend=FLOAT)
    with pytest.raises(ValueError, match="exact matrix"):
        inverse(m)
    with pytest.raises(ValueError, match="exact matrix"):
        rank_factorization(m)


def test_float_mp_inverse_forms_no_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("Matrix.mul in the float MP-inverse")

    ms = [random_matrix(random.Random(seed), rows, cols, FLOAT, involution)
          for seed, (rows, cols) in enumerate(((3, 3), (4, 2), (2, 5)))
          for involution in (CONJUGATE_TRANSPOSE, TRANSPOSE)]
    ms.append(ms[2] @ ms[4])  # 4 x 5 of rank 2
    monkeypatch.setattr(Matrix, "mul", refuse)
    daggers = [mp_inverse(m) for m in ms]
    monkeypatch.undo()
    assert all(is_mp_inverse(m, d) for m, d in zip(ms, daggers))


@pytest.mark.parametrize("n", (6, 10))
@pytest.mark.parametrize("s", (20, 30))
def test_float_mp_inverse_holds_penrose_on_graded_matrices(graded, n, s):
    # cond(a) = 2^s: the orthogonal route never forms a* a, whose 2^(2s)
    # would put the smallest pivots of an elimination under the threshold
    for seed in range(20):
        a = graded(n, s, seed).to_float()
        assert is_mp_inverse(a, mp_inverse(a)), seed


@pytest.mark.parametrize("value", [1e-200, 1e200])
def test_float_mp_inverse_at_extreme_scales(value):
    # the core F* m G* of [[1e-200]] would be 1e-600, not a float; the
    # power-of-two pre-scaling keeps it near unit scale
    m = Matrix.floating([[value]])
    assert is_mp_inverse(m, mp_inverse(m))


def test_float_mp_inverse_beyond_float_range_raises():
    # mp([[1e-310]]) = 1e310 overflows: refused, never inf or NaN
    with pytest.raises(NotMpInvertibleError):
        mp_inverse(Matrix.floating([[1e-310]]))


def test_mp_inverse_inverts_once(monkeypatch):
    # one inverse, of the r x r core F* m G*, per MP-inverse
    calls = []
    real = matrix.inverse

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(matrix, "inverse", counting)
    for m in (Matrix.exact([[1, 2], [2, 4]]), Matrix.exact([[1, 2, 3], [0, 1, 1]]),
              Matrix.exact([[I]])):
        calls.clear()
        mp_inverse(m)
        assert len(calls) == 1
    calls.clear()
    mp_inverse(Matrix.zeros(2, 3))
    assert calls == []


# -- MatrixRing ----------------------------------------------------------------


def test_ring_ops_and_constants():
    ring = MatrixRing(2)
    a = Matrix.exact([[1, 2], [3, 4]])
    assert (a - a).is_zero()
    assert ring.one() @ a == a
    assert ring.zero().is_zero()
    assert ring.one().half().entries[0][0] == GaussianRational(Fraction(1, 2))
    assert (a + a.star()).star() == a + a.star()
    assert (a - a.star()).star() == (a - a.star()).neg()


def test_ring_rejects_unknown_tags():
    with pytest.raises(ValueError, match="unknown backend"):
        MatrixRing(2, backend="quad")
    with pytest.raises(ValueError, match="unknown involution"):
        MatrixRing(2, involution="adjoint")
    with pytest.raises(ValueError, match="size >= 1"):
        MatrixRing(0)


def test_ring_is_zero_accepts_rectangular():
    # defect checks in the m x m ring of c run on rectangular matrices
    assert Matrix.zeros(2, 3).is_zero()
    assert not Matrix.exact([[1]]).is_zero()
