import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve.matrix import (TRANSPOSE, Matrix, is_mp_inverse, mp_inverse,
                              random_matrix)
from starsolve.oracle import random_rect_instance
from starsolve.rect import (RectProblem, check_rect_hypotheses, embed, embed_mp,
                            embed_solution, extract_solution, solve_rect,
                            solve_rect_via_embedding)
from starsolve.scalars import GaussianRational
from starsolve.solvers import MINUS, PLUS, UnsolvableError, equation_lhs

I = GaussianRational(Fraction(0), Fraction(1))

seeds = st.integers(min_value=0, max_value=10**6)
small = st.integers(min_value=1, max_value=2)
signs = st.sampled_from((MINUS, PLUS))


def rect_map(problem, x, sign=MINUS):
    first = problem.a @ x @ problem.b.star()
    second = problem.b @ x.star() @ problem.a.star()
    return first.sub(second) if sign == MINUS else first.add(second)


# -- problem and embedding layout ------------------------------------------------


def test_rect_problem_validates_shapes():
    a = Matrix.exact([[1, 2]])          # 1x2
    b = Matrix.exact([[3]])             # 1x1
    c = Matrix.exact([[0]])             # 1x1
    prob = RectProblem(a, b, c)
    assert prob.dims == (1, 2, 1)
    with pytest.raises(ValueError):
        RectProblem(a, b, Matrix.exact([[0, 0]]))
    with pytest.raises(ValueError):
        RectProblem(a, b.to_float(), c)


def test_embedding_block_layout():
    rng = random.Random(1)
    a = random_matrix(rng, 1, 2)
    b = random_matrix(rng, 1, 3)
    c_raw = random_matrix(rng, 1, 1)
    c = c_raw.sub(c_raw.star())
    prob = RectProblem(a, b, c)
    triple = embed(prob)
    k = 1 + 2 + 3
    assert isinstance(triple, RectProblem) and triple.dims == (k, k, k)
    assert triple.a.shape == (k, k)
    # a occupies block (1,2), b block (1,3), c block (1,1); all else zero
    assert triple.a.block(0, 1, 1, 2).equals(a)
    assert triple.b.block(0, 3, 1, 3).equals(b)
    assert triple.c.block(0, 0, 1, 1).equals(c)
    assert triple.a.block(0, 0, 1, 1).is_zero()
    assert triple.b.block(0, 1, 1, 2).is_zero()


def test_embed_mp_passes_penrose():
    rng = random.Random(2)
    prob = random_rect_instance(rng, (2, 3, 2), "coisometry")
    triple = embed(prob)
    big_a_dagger = embed_mp(mp_inverse(prob.a), mp_inverse(prob.b),
                            prob.dims)[0]
    assert is_mp_inverse(triple.a, big_a_dagger)


def test_embed_mp_is_the_unique_mp_inverse():
    rng = random.Random(4)
    prob = random_rect_instance(rng, (1, 2, 2), "diagonal")
    triple = embed(prob)
    da, db = embed_mp(mp_inverse(prob.a), mp_inverse(prob.b), prob.dims)
    assert da.equals(mp_inverse(triple.a))
    assert db.equals(mp_inverse(triple.b))


def test_extract_embed_solution_roundtrip():
    rng = random.Random(3)
    x = random_matrix(rng, 2, 3)
    dims = (1, 2, 3)
    big = embed_solution(x, dims)
    assert big.shape == (6, 6)
    assert extract_solution(big, dims).equals(x)


# -- direct rectangular solving -----------------------------------------------------


def test_solve_rect_pinned_scalar():
    prob = RectProblem(Matrix.exact([[2]]), Matrix.exact([[2]]),
                       Matrix.exact([[4 * I]]))
    fam = solve_rect(prob)
    assert fam.x0.equals(Matrix.exact([[Fraction(1, 2) * I]]))
    assert fam.is_solution(fam.x0)


def test_solve_rect_unsolvable_symmetry():
    prob = RectProblem(Matrix.exact([[2]]), Matrix.exact([[2]]),
                       Matrix.exact([[1]]))
    with pytest.raises(UnsolvableError) as exc:
        solve_rect(prob)
    assert "c_star_neq_minus_c" in exc.value.failed


def test_rect_hypotheses_report_shapes(derived):
    rng = random.Random(8)
    prob = random_rect_instance(rng, (2, 3, 2), "coisometry")
    rep = check_rect_hypotheses(prob)
    assert rep.ok
    d, d_dagger = derived(rep)
    assert d.shape == (2, 3)
    assert d_dagger.shape == (3, 2)


@given(seeds, signs, small, small, small)
@settings(max_examples=50, deadline=None)
def test_rect_forced_roundtrip(seed, sign, m, n, p):
    rng = random.Random(seed)
    prob = random_rect_instance(rng, (m, n, p), "diagonal", sign=sign)
    fam = solve_rect(prob, sign=sign)
    assert fam.x0.shape == (n, p)
    assert rect_map(prob, fam.x0, sign).equals(prob.c)
    v = random_matrix(rng, n, p)
    assert fam.is_solution(fam.at(v))
    for seed2 in range(3):
        assert fam.is_solution(fam.sample(seed2))


@given(seeds, signs)
@settings(max_examples=40, deadline=None)
def test_rect_direct_equals_embedded_route(seed, sign):
    rng = random.Random(seed)
    dims = rng.choice(((1, 2, 2), (2, 2, 2), (2, 3, 2), (1, 1, 2)))
    prob = random_rect_instance(rng, dims, "diagonal", sign=sign)
    fam = solve_rect(prob, sign=sign)
    sq_fam, triple = solve_rect_via_embedding(prob, sign=sign)
    assert extract_solution(sq_fam.x0, prob.dims).equals(fam.x0)
    # the big particular solution solves the embedded square equation
    assert equation_lhs(sign, triple.a, triple.b,
                        sq_fam.x0).equals(triple.c)


def test_embedded_homogeneous_extracts_to_rect_kernel():
    rng = random.Random(17)
    prob = random_rect_instance(rng, (2, 2, 2), "coisometry")
    sq_fam, triple = solve_rect_via_embedding(prob)
    v = random_matrix(rng, triple.a.rows, triple.a.rows)
    h = extract_solution(sq_fam.homogeneous(v), prob.dims)
    assert rect_map(prob, h).is_zero()


def test_rect_float_backend():
    rng = random.Random(23)
    prob = random_rect_instance(rng, (2, 3, 2), "coisometry").to_float()
    fam = solve_rect(prob)
    tol = 1e-9 * (1.0 + prob.c.max_abs())
    assert fam.residual(fam.x0).max_abs() <= tol


def test_rect_transpose_involution():
    rng = random.Random(29)
    prob = random_rect_instance(rng, (2, 2, 2), "diagonal",
                                involution=TRANSPOSE)
    fam = solve_rect(prob)
    assert rect_map(prob, fam.x0).equals(prob.c)
