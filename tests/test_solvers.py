import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve.matrix import (CONJUGATE_TRANSPOSE, EXACT, FLOAT, RTOL, TRANSPOSE,
                              Matrix, MatrixRing, is_mp_inverse, mp_inverse,
                              random_matrix, tolerance)
from starsolve.formats import PAIR_FAMILIES, RECT_FAMILIES
from starsolve.oracle import (random_pair, random_rect_instance, random_square_instance,
                              random_sym_instance)
from starsolve.scalars import GaussianRational
from starsolve.solvers import (Condition, HypothesesFailError, MINUS, PLUS,
                               UnsolvableError, check_hypotheses,
                               equation_lhs, particular,
                               solvability_conditions, solve, solve_sym_left,
                               solve_sym_right, sym_solvability_conditions)

I = GaussianRational(Fraction(0), Fraction(1))
RING2 = MatrixRing(2)
RING1 = MatrixRing(1)

seeds = st.integers(min_value=0, max_value=10**6)
families = st.sampled_from(("unitary", "equal", "diagonal"))
signs = st.sampled_from((MINUS, PLUS))
involutions = st.sampled_from((CONJUGATE_TRANSPOSE, TRANSPOSE))


def scalar(value):
    return Matrix.exact([[value]])


# -- hypotheses ----------------------------------------------------------------


def test_check_hypotheses_scalar_ones(derived):
    rep = check_hypotheses(RING1, scalar(1), scalar(1))
    assert rep.ok and rep.range_condition.ok and rep.hermitian_condition.ok
    assert derived(rep)[0].is_zero()
    assert all(cond.tol is None for cond in rep.conditions)


def test_check_hypotheses_failure_names():
    a = Matrix.exact([[1, 0], [0, 0]])
    b = Matrix.exact([[0, 0], [0, 1]])
    rep = check_hypotheses(RING2, a, b)
    assert not rep.range_condition.ok
    assert "range_condition" in rep.failed_names()


@pytest.mark.parametrize("family", ("unitary", "equal"))
def test_hypothesis_report_products(family):
    # the shared products are the ones they stand for, also when b == a
    # takes all of them from a
    a, b = random_pair(random.Random(17), 3, family, CONJUGATE_TRANSPOSE)
    assert (b == a) == (family == "equal")
    rep = check_hypotheses(MatrixRing(3), a, b)
    assert rep.b_dagger == mp_inverse(b)
    assert rep.a_a_dagger == a @ rep.a_dagger
    assert rep.b_b_dagger == b @ rep.b_dagger
    assert rep.a_dagger_b == rep.a_dagger @ b
    assert rep.b_dagger_a == rep.b_dagger @ a


@given(seeds, signs, involutions, st.sampled_from((EXACT, FLOAT)),
       st.sampled_from(((2, 2, 2), (2, 3, 1), (3, 1, 2))))
@settings(max_examples=60, deadline=None)
def test_equation_lhs_matches_the_two_sided_formula(seed, sign, involution, backend, dims):
    # equation_lhs takes b x* a* as (a x b*)*; the formula multiplies it out
    rng = random.Random(seed)
    m, n, p = dims
    a = random_matrix(rng, m, n, backend, involution)
    b = random_matrix(rng, m, p, backend, involution)
    x = random_matrix(rng, n, p, backend, involution)
    first = a @ x @ b.star()
    second = b @ x.star() @ a.star()
    direct = first - second if sign == MINUS else first + second
    lhs = equation_lhs(sign, a, b, x)
    if backend == EXACT:
        assert lhs == direct
    else:
        assert (lhs - direct).is_zero(tolerance(RTOL, (a, x, b)))


def test_derived_element_identities(derived):
    # d = E_b a satisfies: d'b = 0, b*dd' = 0, dd'a = d, d'a = d'd
    rng = random.Random(11)
    for trial in range(25):
        a, b = random_pair(rng, 2, ("unitary", "equal", "diagonal")[trial % 3],
                           CONJUGATE_TRANSPOSE)
        rep = check_hypotheses(RING2, a, b)
        assert rep.ok
        d, d_dagger = derived(rep)
        assert (d_dagger @ b).is_zero()
        assert (b.star() @ (d @ d_dagger)).is_zero()
        assert (d @ d_dagger @ a).equals(d)
        assert (d_dagger @ a).equals(d_dagger @ d)


def test_d_dagger_is_the_mp_inverse_of_d(derived):
    rng = random.Random(3)
    for _ in range(20):
        a, b = random_pair(rng, 3, "unitary", CONJUGATE_TRANSPOSE)
        rep = check_hypotheses(MatrixRing(3), a, b)
        assert is_mp_inverse(*derived(rep))


def test_float_hypotheses_record_tolerance():
    rng = random.Random(5)
    a, b = (m.to_float() for m in random_pair(rng, 2, "unitary",
                                              CONJUGATE_TRANSPOSE))
    ring = MatrixRing(2, backend=FLOAT)
    rep = check_hypotheses(ring, a, b)
    assert rep.ok
    assert all(cond.tol is not None and cond.tol > 0 for cond in rep.conditions)


# -- solvability conditions -----------------------------------------------------


def test_conditions_scalar_minus_solvable():
    rep = check_hypotheses(RING1, scalar(1), scalar(1))
    sym, hcond = solvability_conditions(MINUS, rep, scalar(2 * I))
    assert sym.name == "c_star_neq_minus_c" and sym.ok
    assert hcond.name == "H_condition" and hcond.ok


def test_conditions_scalar_minus_unsolvable():
    rep = check_hypotheses(RING1, scalar(1), scalar(1))
    sym, hcond = solvability_conditions(MINUS, rep, scalar(1))
    assert not sym.ok


def test_conditions_plus_uses_symmetric_name():
    rep = check_hypotheses(RING1, scalar(1), scalar(1))
    sym, _ = solvability_conditions(PLUS, rep, scalar(I))
    assert sym.name == "c_star_neq_c" and not sym.ok


def test_h_condition_pinned_failure():
    # skew c that still fails the averaged projection identity
    a = Matrix.exact([[1, 0], [0, 0]])
    b = Matrix.exact([[1, 0], [0, 0]])
    c = Matrix.exact([[0, 1], [-1, 0]])
    rep = check_hypotheses(RING2, a, b)
    sym, hcond = solvability_conditions(MINUS, rep, c)
    assert sym.ok and not hcond.ok


# -- the homogeneous map and particular ------------------------------------------


def test_homogeneous_identity_pair_splits_parts():
    # a = b = 1: x - x* = 0 has hermitian solutions, x + x* = 0 skew ones,
    # and L averages v onto the matching part
    one, zero = RING2.one(), RING2.zero()
    v = Matrix.exact([[1, I], [0, 2]])
    assert solve(RING2, MINUS, one, one, zero).homogeneous(v).equals(
        (v + v.star()).half())
    assert solve(RING2, PLUS, one, one, zero).homogeneous(v).equals(
        (v - v.star()).half())


def test_particular_scalar_pinned():
    rep = check_hypotheses(RING1, scalar(1), scalar(1))
    assert particular(MINUS, rep, scalar(2 * I)).entry(0, 0) == I


def test_particular_diagonal_pinned():
    a = Matrix.exact([[1, 0], [0, 2]])
    b = Matrix.exact([[2, 0], [0, 1]])
    c = Matrix.exact([[4 * I, 0], [0, 0]])
    rep = check_hypotheses(RING2, a, b)
    x0 = particular(MINUS, rep, c)
    assert x0.equals(Matrix.exact([[I, 0], [0, 0]]))


# -- solve -------------------------------------------------------------------------


def test_solve_scalar_family():
    fam = solve(RING1, MINUS, scalar(1), scalar(1), scalar(2 * I))
    assert fam.x0.entry(0, 0) == I
    assert fam.is_solution(fam.x0)
    for seed in range(4):
        assert fam.is_solution(fam.sample(seed))


def test_family_sample_deterministic():
    fam = solve(RING2, MINUS, RING2.one(), RING2.one(), RING2.zero())
    assert fam.sample(5) == fam.sample(5)
    assert fam.sample(5) != fam.sample(6)


def test_solve_stores_the_conditions_it_checked():
    rng = random.Random(41)
    for sign in (MINUS, PLUS):
        a, b = random_pair(rng, 2, "unitary", CONJUGATE_TRANSPOSE)
        c = equation_lhs(sign, a, b, random_matrix(rng, 2, 2))
        fam = solve(RING2, sign, a, b, c)
        expected = solvability_conditions(sign, check_hypotheses(RING2, a, b), c)
        assert [(k.name, k.ok, k.residual) for k in fam.conditions] == \
            [(k.name, k.ok, k.residual) for k in expected]
    for side, solver in (("right", solve_sym_right), ("left", solve_sym_left)):
        a, b = random_sym_instance(rng, side, 2, force_solvable=True)
        fam = solver(RING2, a, b)
        assert fam.conditions == sym_solvability_conditions(RING2, side, a, b)


def test_homogeneous_map_is_idempotent_for_every_kind():
    rng = random.Random(43)
    for trial in range(6):
        sign = (MINUS, PLUS)[trial % 2]
        a, b = random_pair(rng, 3, ("unitary", "equal", "diagonal")[trial % 3],
                           CONJUGATE_TRANSPOSE)
        c = equation_lhs(sign, a, b, random_matrix(rng, 3, 3))
        families = [solve(MatrixRing(3), sign, a, b, c)]
        for side, solver in (("right", solve_sym_right), ("left", solve_sym_left)):
            sa, sb = random_sym_instance(rng, side, 3, force_solvable=True)
            families.append(solver(MatrixRing(3), sa, sb))
        for fam in families:
            v = random_matrix(rng, 3, 3)
            h = fam.homogeneous(v)
            assert fam.homogeneous(h).equals(h), fam.kind
            assert equation_lhs(fam.sign, fam.a, fam.b, h).is_zero(), fam.kind


def test_solve_unsolvable_raises_with_names():
    with pytest.raises(UnsolvableError) as exc:
        solve(RING1, MINUS, scalar(1), scalar(1), scalar(1))
    assert "c_star_neq_minus_c" in exc.value.failed
    assert exc.value.report is not None


def test_solve_hypotheses_fail_raises():
    a = Matrix.exact([[1, 0], [0, 0]])
    b = Matrix.exact([[0, 0], [0, 1]])
    with pytest.raises(HypothesesFailError) as exc:
        solve(RING2, MINUS, a, b, RING2.zero())
    assert "range_condition" in exc.value.report.failed_names()


@given(seeds, signs, families, involutions, st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_solve_forced_instances_roundtrip(seed, sign, family, involution, size):
    rng = random.Random(seed)
    ring = MatrixRing(size, involution=involution)
    a, b = random_pair(rng, size, family, involution)
    x_hat = random_matrix(rng, size, size, EXACT, involution)
    c = equation_lhs(sign, a, b, x_hat)
    fam = solve(ring, sign, a, b, c)
    assert fam.is_solution(fam.x0)
    v = random_matrix(rng, size, size, EXACT, involution)
    assert fam.is_solution(fam.at(v))
    # L fixes homogeneous solutions: x_hat - x0 solves the zero equation
    h = x_hat.sub(fam.x0)
    assert fam.homogeneous(h).equals(h)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_solve_float_residuals_small(seed):
    rng = random.Random(seed)
    ring = MatrixRing(2, backend=FLOAT)
    a, b = (m.to_float() for m in random_pair(rng, 2, "unitary",
                                              CONJUGATE_TRANSPOSE))
    x_hat = random_matrix(rng, 2, 2, FLOAT, CONJUGATE_TRANSPOSE)
    c = equation_lhs(MINUS, a, b, x_hat)
    fam = solve(ring, MINUS, a, b, c)
    tol = 1e-9 * (1.0 + c.max_abs())
    assert fam.residual(fam.x0).max_abs() <= tol


# -- the reduced closed form against the paper's three-term one --------------------


def paper_forms(sign, rep, c, d, d_dagger):
    """The paper's x0 (three terms), H residual (projection a a' + d d') and
    general (p, s), with d and d' formed: the references for the reduced
    forms that the solvers evaluate."""
    a, b, ad, bd = rep.a, rep.b, rep.a_dagger, rep.b_dagger
    bd_star = bd.star()
    x0 = ((ad @ c @ bd_star).half() - (ad @ b @ bd @ c @ (bd @ a @ d_dagger).star()).half()
          + (d_dagger @ c @ bd_star).half())
    m = (a @ ad + d @ d_dagger) @ c @ (b @ bd)
    h = (m - m.star() if sign == MINUS else m + m.star()) - (c + c)
    dda, bda = d_dagger @ a, bd @ a
    return x0, h, ad @ a + dda, (bda - bda @ dda).star()


def paper_homogeneous(sign, rep, p, s, v):
    """The paper's L(v) = v - (1/2) p v q + sigma (1/2) r v* s, with q = b'b,
    r = a'b and sigma = +1 (minus) or -1 (plus)."""
    t = (p @ v @ (rep.b_dagger @ rep.b)).half()
    u = (rep.a_dagger_b @ v.star() @ s).half()
    return v - t + u if sign == MINUS else v - t - u


def homogeneous_family(ring, sign, a, b):
    """The solved family of (a, b) at c = 0, which is always solvable: its
    L depends on (a, b) alone."""
    return solve(ring, sign, a, b, Matrix.zeros(a.rows, a.rows, a.involution, a.backend))


def paper_instances(rng):
    """(sign, involution, a, b, c) over every pair family, solvable or not,
    then extra diagonal-family draws: the diagonal pairs are the ones with
    d != 0, where a dropped d' or d d' would show."""
    shapes = [(family, n) for family in PAIR_FAMILIES for n in (1, 2, 3)]
    shapes += [(family, dims) for family in RECT_FAMILIES
               for dims in ((2, 3, 2), (1, 2, 3), (2, 2, 3))]
    diagonal = [("diagonal", n) for n in (2, 3)] + [("diagonal", dims)
                                                    for dims in ((2, 3, 2), (2, 2, 3))]
    for batch in (shapes, 3 * diagonal):
        for involution in (CONJUGATE_TRANSPOSE, TRANSPOSE):
            for sign, force in itertools.product((MINUS, PLUS), (False, True)):
                for family, shape in batch:
                    if isinstance(shape, tuple):
                        prob = random_rect_instance(rng, shape, family, force, involution,
                                                    sign)
                        yield sign, involution, prob.a, prob.b, prob.c
                    else:
                        yield (sign, involution,
                               *random_square_instance(rng, sign, shape, family, force,
                                                       involution))


def test_reduced_closed_form_equals_the_papers(derived):
    # Exactly equal on every instance passing the hypotheses, solvable or
    # not: d' = a' - a'b b' with b'a d' = 0 and d d' = a a' - b b'.  L is
    # checked at a random v against the paper's four-coefficient form.
    rng, vrng = random.Random(29), random.Random(30)
    nonzero_d = 0
    for sign, involution, a, b, c in paper_instances(rng):
        ring = MatrixRing(a.rows, involution=involution)
        rep = check_hypotheses(ring, a, b)
        assert rep.ok
        d, d_dagger = derived(rep)
        nonzero_d += not d.is_zero()
        x0, h, p, s = paper_forms(sign, rep, c, d, d_dagger)
        assert particular(sign, rep, c) == x0
        assert solvability_conditions(sign, rep, c)[1].residual == h
        v = random_matrix(vrng, a.cols, b.cols, EXACT, involution)
        fam = homogeneous_family(ring, sign, a, b)
        assert fam.homogeneous(v) == paper_homogeneous(sign, rep, p, s, v)
    assert nonzero_d >= 40, nonzero_d


@pytest.mark.parametrize("scale", (1e-6, 1.0, 1e6))
@pytest.mark.parametrize("family", ("equal", "diagonal"))
def test_reduced_closed_form_matches_the_papers_in_floats(derived, family, scale):
    # Float n=16: the two forms agree within the tolerance of the paper's
    # terms, at every scale, as the identities hold to rounding.
    rng, vrng = random.Random(31), random.Random(32)
    ring = MatrixRing(16, backend=FLOAT)
    for sign in (MINUS, PLUS):
        a, b, c = (m.to_float().scale(scale)
                   for m in random_square_instance(rng, sign, 16, family))
        rep = check_hypotheses(ring, a, b)
        assert rep.ok
        d, d_dagger = derived(rep)
        ad, bd, bbd = rep.a_dagger, rep.b_dagger, rep.b_b_dagger
        x0, h, p, s = paper_forms(sign, rep, c, d, d_dagger)
        fam = homogeneous_family(ring, sign, a, b)
        v = random_matrix(vrng, 16, 16, FLOAT)
        q, r = bd @ b, rep.a_dagger_b
        for got, want, tol in (
                (particular(sign, rep, c), x0,
                 tolerance(RTOL, (ad, c, bd), (ad, b, bd, c, bd, a, d_dagger),
                           (d_dagger, c, bd))),
                (solvability_conditions(sign, rep, c)[1].residual, h,
                 tolerance(RTOL, (rep.a_a_dagger, c, bbd), (d, d_dagger, c, bbd), c)),
                (fam.homogeneous(v), paper_homogeneous(sign, rep, p, s, v),
                 tolerance(RTOL, v, (p, v, q), (r, v, s), (fam.g, a, v, b, fam.h)))):
            assert (got - want).is_zero(tol)


# -- symmetric corollaries ----------------------------------------------------------


def test_sym_right_pinned():
    a = Matrix.exact([[1, 1], [0, 0]])
    b = (a @ a.star()).add(a @ a.star())
    fam = solve_sym_right(RING2, a, b)
    assert fam.is_solution(fam.x0)
    assert fam.kind == "sym_right"
    assert fam.report is None


def test_sym_right_unsolvable_squeeze():
    # E_a b E_a != 0 for rank-deficient a missing the (1,1) direction
    a = Matrix.exact([[0, 0], [0, 1]])
    b = Matrix.exact([[1, 0], [0, 0]])
    with pytest.raises(UnsolvableError) as exc:
        solve_sym_right(RING2, a, b)
    assert "E_condition" in exc.value.failed


def test_sym_left_unsolvable_squeeze():
    a = Matrix.exact([[0, 1], [0, 0]])
    b = Matrix.exact([[2, 0], [0, 0]])
    with pytest.raises(UnsolvableError) as exc:
        solve_sym_left(RING2, a, b)
    assert "F_condition" in exc.value.failed


def test_sym_nonhermitian_rhs_rejected():
    a = Matrix.exact([[1, 0], [0, 1]])
    b = Matrix.exact([[0, 1], [0, 0]])
    for solver in (solve_sym_right, solve_sym_left):
        with pytest.raises(UnsolvableError) as exc:
            solver(RING2, a, b)
        assert "b_star_neq_b" in exc.value.failed


def test_sym_helper_matches_solvers():
    rng = random.Random(9)
    for side in ("right", "left"):
        solver = solve_sym_right if side == "right" else solve_sym_left
        for trial in range(30):
            a, b = random_sym_instance(rng, side, 2,
                                       force_solvable=(trial % 2 == 0))
            conds = sym_solvability_conditions(RING2, side, a, b)
            assert tuple(isinstance(c, Condition) for c in conds) == (True, True)
            if all(c.ok for c in conds):
                fam = solver(RING2, a, b)
                assert fam.is_solution(fam.x0)
            else:
                with pytest.raises(UnsolvableError):
                    solver(RING2, a, b)


def test_sym_right_agrees_with_general_plus_form():
    # x a* + a x* = b is the triple (1, a, b) of the plus equation
    rng = random.Random(21)
    for _ in range(15):
        a, b = random_sym_instance(rng, "right", 2, force_solvable=True)
        fam_sym = solve_sym_right(RING2, a, b)
        fam_gen = solve(RING2, PLUS, RING2.one(), a, b)
        assert fam_gen.is_solution(fam_sym.x0)
        assert fam_sym.is_solution(fam_gen.x0)
        v = random_matrix(rng, 2, 2)
        assert fam_gen.is_solution(fam_sym.at(v))


def test_sym_left_solutions_star_relate_to_right():
    # y solves a* x + x* a = b iff y* solves the right-sided equation for a*
    rng = random.Random(33)
    for _ in range(15):
        a, b = random_sym_instance(rng, "left", 2, force_solvable=True)
        fam = solve_sym_left(RING2, a, b)
        x = fam.x0
        lhs = (a.star() @ x).add(x.star() @ a)
        assert lhs.equals(b)
        y = x.star()
        assert (y @ a).add(a.star() @ y.star()).equals(b)


def test_condition_tolerance_recorded_for_float():
    ring = MatrixRing(2, backend=FLOAT)
    a = Matrix.floating([[1.0, 0.0], [0.0, 0.0]])
    b = Matrix.floating([[1.0, 0.0], [0.0, 1.0]])
    conds = sym_solvability_conditions(ring, "right", a, b)
    assert all(c.tol is not None for c in conds)


# -- float verdicts under rescaling --------------------------------------------


def test_scaled_unsolvable_diagonal_instances_stay_unsolvable():
    # Exactly unsolvable 3x3 minus instances (diagonal pairs, random skew c)
    # scaled by 1e-6: the float conditions are judged against their own
    # terms, so the verdict does not drift to "solvable" as the scale falls.
    rng = random.Random(41)
    exact_ring, float_ring = MatrixRing(3), MatrixRing(3, backend=FLOAT)
    found = 0
    for _ in range(200):
        a, b, c = random_square_instance(rng, MINUS, 3, "diagonal",
                                         force_solvable=False)
        if all(cond.ok for cond in solvability_conditions(
                MINUS, check_hypotheses(exact_ring, a, b), c)):
            continue
        af, bf, cf = (m.to_float().scale(1e-6) for m in (a, b, c))
        with pytest.raises(UnsolvableError):
            solve(float_ring, MINUS, af, bf, cf)
        found += 1
        if found == 20:
            break
    assert found == 20


def test_extreme_scale_unitary_instances_solve():
    # Solvable unitary 3x3 minus instances scaled by 1e-160 and 1e160: the
    # float MP-inverse pre-scales by a power of two, so its core F* m G*
    # (of scale |m|^3) stays inside the float range and every x0 verifies.
    float_ring = MatrixRing(3, backend=FLOAT)
    for scale in (1e-160, 1e160):
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = random_square_instance(rng, MINUS, 3, "unitary")
            af, bf, cf = (m.to_float().scale(scale) for m in (a, b, c))
            fam = solve(float_ring, MINUS, af, bf, cf)
            assert fam.is_solution(fam.x0)
