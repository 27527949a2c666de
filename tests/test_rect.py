import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve.draws import random_matrix
from starsolve.generate import random_rect_instance, random_square_instance
from starsolve.matrix import Matrix, mp_inverse
from starsolve.penrose import is_mp_inverse
from starsolve.rect import (RectProblem, check_rect_hypotheses, embed, embed_mp,
                            embed_solution, extract_solution, solve_rect,
                            solve_rect_via_embedding)
from starsolve.scalars import GaussianRational
from starsolve.solvers import MINUS, PLUS, UnsolvableError, equation_lhs
from starsolve.tags import TRANSPOSE

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


def test_rect_problem_value_semantics():
    prob = random_rect_instance(random.Random(5), (2, 3, 2), "coisometry")
    same = RectProblem(prob.a, prob.b, prob.c)
    floated = RectProblem(*(m.to_float() for m in prob))
    assert same == prob and hash(same) == hash(prob) and same != floated
    assert RectProblem(prob.a, prob.b, prob.c.neg()) != prob
    assert copy.copy(prob) == prob and pickle.loads(pickle.dumps(prob)) == prob
    with pytest.raises(AttributeError):
        prob.c = prob.c.neg()
    assert repr(prob).startswith("RectProblem(a=Matrix[2x3 exact")


def test_rect_problem_replace_and_make_check_shapes():
    prob = random_rect_instance(random.Random(5), (2, 3, 2), "coisometry")
    assert prob._replace(c=prob.c.neg()) == RectProblem(prob.a, prob.b, prob.c.neg())
    assert RectProblem._make(iter(prob)) == prob
    with pytest.raises(ValueError, match="need A: m x n"):
        prob._replace(c=prob.a)
    with pytest.raises(ValueError, match="need A: m x n"):
        RectProblem._make([prob.a, prob.b, prob.a])


def test_square_instance_is_the_rect_problem_at_n_n_n():
    problem = random_square_instance(random.Random(7), MINUS, 3, "unitary")
    assert type(problem) is RectProblem and problem.dims == (3, 3, 3)
    a, b, c = problem
    assert problem == (a, b, c) == RectProblem(a, b, c)


@pytest.mark.parametrize("build, message", [
    (lambda: RectProblem(Matrix.zeros(0, 1), Matrix.zeros(0, 1), Matrix.zeros(0, 0)),
     "at least 1"),  # m = 0
    (lambda: RectProblem(Matrix.zeros(1, 0), Matrix.zeros(1, 1), Matrix.zeros(1, 1)),
     "at least 1"),  # n = 0
    (lambda: RectProblem(Matrix.zeros(1, 1), Matrix.zeros(1, 0), Matrix.zeros(1, 1)),
     "at least 1"),  # p = 0
    (lambda: embed_mp(Matrix.zeros(1, 2), Matrix.zeros(3, 1), (1, 2, 3)),
     "expected A-dagger 2x1"),
    (lambda: extract_solution(Matrix.zeros(5, 5), (1, 2, 3)), "expected a 6-square matrix"),
    (lambda: embed_solution(Matrix.zeros(3, 2), (1, 2, 3)), "expected X of shape 2x3"),
])
def test_rect_shapes_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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
    assert triple.a.block(0, 1, 1, 2) == a
    assert triple.b.block(0, 3, 1, 3) == b
    assert triple.c.block(0, 0, 1, 1) == c
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
    assert da == mp_inverse(triple.a)
    assert db == mp_inverse(triple.b)


def test_extract_embed_solution_roundtrip():
    rng = random.Random(3)
    x = random_matrix(rng, 2, 3)
    dims = (1, 2, 3)
    big = embed_solution(x, dims)
    assert big.shape == (6, 6)
    assert extract_solution(big, dims) == x


# -- direct rectangular solving -----------------------------------------------------


def test_solve_rect_pinned_scalar():
    prob = RectProblem(Matrix.exact([[2]]), Matrix.exact([[2]]),
                       Matrix.exact([[4 * I]]))
    fam = solve_rect(prob)
    assert fam.x0 == Matrix.exact([[Fraction(1, 2) * I]])
    assert fam.judge(fam.x0).ok


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
    assert rect_map(prob, fam.x0, sign) == prob.c
    v = random_matrix(rng, n, p)
    assert fam.judge(fam.at(v)).ok
    for seed2 in range(3):
        assert fam.judge(fam.sample(seed2)).ok


@given(seeds, signs)
@settings(max_examples=40, deadline=None)
def test_rect_direct_equals_embedded_route(seed, sign):
    rng = random.Random(seed)
    dims = rng.choice(((1, 2, 2), (2, 2, 2), (2, 3, 2), (1, 1, 2)))
    prob = random_rect_instance(rng, dims, "diagonal", sign=sign)
    fam = solve_rect(prob, sign=sign)
    sq_fam, triple = solve_rect_via_embedding(prob, sign=sign)
    assert extract_solution(sq_fam.x0, prob.dims) == fam.x0
    # the big particular solution solves the embedded square equation
    assert equation_lhs(sign, triple.a, triple.b,
                        sq_fam.x0) == triple.c


def test_embedded_homogeneous_extracts_to_rect_kernel():
    rng = random.Random(17)
    prob = random_rect_instance(rng, (2, 2, 2), "coisometry")
    sq_fam, triple = solve_rect_via_embedding(prob)
    v = random_matrix(rng, triple.a.rows, triple.a.rows)
    h = extract_solution(sq_fam.homogeneous(v), prob.dims)
    assert rect_map(prob, h).is_zero()


def test_rect_float_backend():
    rng = random.Random(23)
    exact = random_rect_instance(rng, (2, 3, 2), "coisometry")
    prob = RectProblem(*(m.to_float() for m in exact))
    fam = solve_rect(prob)
    tol = 1e-9 * (1.0 + prob.c.max_abs())
    assert fam.residual(fam.x0).max_abs() <= tol


def test_rect_transpose_involution():
    rng = random.Random(29)
    prob = random_rect_instance(rng, (2, 2, 2), "diagonal",
                                involution=TRANSPOSE)
    fam = solve_rect(prob)
    assert rect_map(prob, fam.x0) == prob.c
