import copy
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve.draws import random_matrix
from starsolve.generate import (GenerationError, PAIR_FAMILIES, RECT_FAMILIES, random_pair,
                                random_rect_instance, random_sym_instance,
                                random_square_instance)
from starsolve.matrix import Matrix, inverse, rank_factorization
from starsolve.oracle import linearize, oracle_solve, verify_family_against_oracle
from starsolve.rect import solve_rect
from starsolve.ring import MatrixRing
from starsolve.scalars import GaussianRational
from starsolve.solvers import (MINUS, PLUS, UnsolvableError, check_hypotheses,
                               equation_lhs, solve, solve_sym_left, solve_sym_right)
from starsolve.structured import random_coisometry, random_unitary
from starsolve.tags import CONJUGATE_TRANSPOSE, EXACT, TRANSPOSE

I = GaussianRational(Fraction(0), Fraction(1))

seeds = st.integers(min_value=0, max_value=10**6)
signs = st.sampled_from((MINUS, PLUS))
involutions = st.sampled_from((CONJUGATE_TRANSPOSE, TRANSPOSE))


def scalar(value):
    return Matrix.exact([[value]])


def coordinates(x, system):
    """Real coordinates of x, as Fractions, in the order of the system's columns."""
    return [getattr(x.entries[i][j], part) for i, j, part in system.col_index]


def rows_hold(system, x):
    """Whether x satisfies every integer row of the system."""
    vec = coordinates(x, system)
    return all(sum(map(mul, row, vec)) == value for row, value in zip(system.matrix, system.rhs))


def system_rank(system):
    """Rank of the system's integer rows, as an exact matrix."""
    return rank_factorization(Matrix.exact(system.matrix))[2]


# -- linearization -----------------------------------------------------------


def test_linearize_scalar_minus_pinned():
    # x - x* = 2i Im(x): only the imaginary coordinate survives, doubled
    system = linearize(MINUS, scalar(1), scalar(1))
    assert system.matrix == ((0, 0), (0, 2))
    assert all(type(v) is int for row in system.matrix for v in (*row, *system.rhs))


def test_linearize_scalar_plus_pinned():
    system = linearize(PLUS, scalar(1), scalar(1))
    assert system.matrix == ((2, 0), (0, 0))
    assert all(type(v) is int for row in system.matrix for v in (*row, *system.rhs))


def test_linearize_zero_operand_gives_zero_system():
    system = linearize(MINUS, Matrix.zeros(2, 2), Matrix.zeros(2, 2))
    assert all(v == 0 for row in system.matrix for v in row)


def test_linearize_rejects_float():
    with pytest.raises(ValueError):
        linearize(MINUS, Matrix.floating([[1.0]]), Matrix.floating([[1.0]]))


def test_linearize_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="share their row count"):
        linearize(MINUS, Matrix.zeros(2, 2), Matrix.zeros(1, 2))
    with pytest.raises(ValueError, match="C must be 2x2"):
        linearize(MINUS, Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.zeros(2, 1))


def test_transpose_involution_drops_imaginary_coordinates():
    a = Matrix.exact([[1]], involution=TRANSPOSE)
    system = linearize(MINUS, a, a)
    assert len(system.matrix) == 1  # one real coordinate for a 1x1 unknown


@given(seeds, signs, involutions)
@settings(max_examples=60, deadline=None)
def test_linearization_matches_direct_map(seed, sign, involution):
    rng = random.Random(seed)
    m, n, p = rng.choice(((1, 1, 1), (2, 2, 2), (1, 2, 2), (2, 1, 2)))
    a = random_matrix(rng, m, n, EXACT, involution)
    b = random_matrix(rng, m, p, EXACT, involution)
    x = random_matrix(rng, n, p, EXACT, involution)
    system = linearize(sign, a, b)
    first = a @ x @ b.star()
    second = b @ x.star() @ a.star()
    direct = first.sub(second) if sign == MINUS else first.add(second)
    with_c = linearize(sign, a, b, direct)
    assert rows_hold(with_c, x)
    # the same rows, scaled by C's denominator; no C, zero rhs
    d_c = direct.grids[2]
    assert with_c.matrix == tuple(tuple(v * d_c for v in row) for row in system.matrix)
    assert not any(system.rhs) and len(system.rhs) == len(system.matrix)


@given(seeds, signs)
@settings(max_examples=30, deadline=None)
def test_rank_nullity(seed, sign):
    rng = random.Random(seed)
    n, p = rng.choice(((1, 1), (2, 2), (1, 2)))
    a = random_matrix(rng, 2, n)
    b = random_matrix(rng, 2, p)
    c = Matrix.zeros(2, 2)
    result = oracle_solve(sign, a, b, c)
    # kernel dimension + rank = number of real coordinates
    total = 2 * n * p
    system = linearize(sign, a, b, c)
    assert len(system.col_index) == total
    assert result.solvable and result.real_dimension == total - system_rank(system)
    assert result.particular.shape == (n, p) and result.particular.is_zero()


# -- oracle verdicts -----------------------------------------------------------


def test_oracle_scalar_solvable_pinned():
    result = oracle_solve(MINUS, scalar(1), scalar(1), scalar(2 * I))
    assert result.solvable
    assert result.particular.entries[0][0].im == Fraction(1)
    assert result.real_dimension == 1


def test_oracle_scalar_unsolvable_pinned():
    result = oracle_solve(MINUS, scalar(1), scalar(1), scalar(1))
    assert not result.solvable


def test_oracle_diagonal_unsolvable_pinned():
    a = Matrix.exact([[1, 0], [0, 0]])
    c = Matrix.exact([[0, 1], [-1, 0]])
    result = oracle_solve(MINUS, a, a, c)
    assert not result.solvable


def test_oracle_self_consistency():
    rng = random.Random(31)
    for _ in range(20):
        a, b, c = random_square_instance(rng, MINUS, 2, "unitary")
        result = oracle_solve(MINUS, a, b, c)
        assert result.solvable
        assert rows_hold(linearize(MINUS, a, b, c), result.particular)
        assert equation_lhs(MINUS, a, b, result.particular) == c


def test_oracle_builds_no_fraction(monkeypatch):
    # from linearize to the OracleResult, and in the family check, the oracle
    # stays on integer rows and grids
    a, b, c = random_square_instance(random.Random(89), MINUS, 3, "unitary")
    fam = solve(MatrixRing(3), MINUS, a, b, c)
    built = []
    real_new, real_init = Fraction.__new__, GaussianRational.__init__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(GaussianRational, "__init__", counting_init)
    result = oracle_solve(MINUS, a, b, c)
    agreement = verify_family_against_oracle(fam, result)
    assert built == []
    assert result.solvable and agreement.ok
    result.particular.entries  # the per-entry view builds both, and the patch counts them
    assert built


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
@pytest.mark.parametrize("sign", (MINUS, PLUS))
@pytest.mark.parametrize("dims", ((1, 2, 3), (2, 3, 1)))
def test_oracle_solves_rect_shapes_with_n_neq_p(dims, sign, involution):
    # X is n x p with n != p, so an index slip in reading X off the reduced
    # rows would put a coordinate in the wrong entry
    m, n, p = dims
    rng = random.Random(f"rect-{dims}-{sign}-{involution}")
    for _ in range(3):
        a = random_matrix(rng, m, n, EXACT, involution)
        b = random_matrix(rng, m, p, EXACT, involution)
        x = random_matrix(rng, n, p, EXACT, involution)
        c = equation_lhs(sign, a, b, x)
        result = oracle_solve(sign, a, b, c)
        assert result.solvable and result.particular.shape == (n, p)
        assert equation_lhs(sign, a, b, result.particular) == c
        system = linearize(sign, a, b, c)
        assert result.real_dimension == len(system.col_index) - system_rank(system) > 0


# -- family-vs-oracle agreement ---------------------------------------------------


def test_family_agreement_positive():
    fam = solve(MatrixRing(1), MINUS, scalar(1), scalar(1), scalar(2 * I))
    result = oracle_solve(MINUS, scalar(1), scalar(1), scalar(2 * I))
    agreement = verify_family_against_oracle(fam, result)
    assert agreement.ok
    d = agreement.as_dict()
    assert d["x0_in_oracle_set"] and d["kernel_elements_fixed"]
    assert d["homogeneous_images_in_kernel"] and "trials" not in d


def test_family_agreement_detects_perturbed_particular():
    ring = MatrixRing(1)
    fam = solve(ring, MINUS, scalar(1), scalar(1), scalar(2 * I))
    bad = copy.copy(fam)
    bad.x0 = fam.x0.add(Matrix.exact([[I]]))
    result = oracle_solve(MINUS, scalar(1), scalar(1), scalar(2 * I))
    agreement = verify_family_against_oracle(bad, result)
    assert not agreement.ok
    assert not agreement.as_dict()["x0_in_oracle_set"]
    assert agreement.witnesses


def test_image_check_sees_the_conjugate_coefficient():
    # with g = 0, L is the identity: x - x* = 2i Im(x) is zero on the real
    # kernel (so x0 passes) but not on every v: alpha = 1, beta = -1
    fam = solve(MatrixRing(1), MINUS, scalar(1), scalar(1), scalar(2 * I))
    bad = copy.copy(fam)
    bad.g = Matrix.zeros(1, 1)
    agreement = verify_family_against_oracle(bad, oracle_solve(MINUS, fam.a, fam.b, fam.c))
    assert agreement.x0_ok and agreement.as_dict()["kernel_elements_fixed"]
    assert not agreement.homogeneous_in_kernel_ok


def test_zero_instance_kernel_is_everything():
    ring = MatrixRing(1)
    z = Matrix.zeros(1, 1)
    fam = solve(ring, MINUS, z, z, z)
    result = oracle_solve(MINUS, z, z, z)
    assert result.real_dimension == 2
    agreement = verify_family_against_oracle(fam, result)
    assert agreement.ok


@given(seeds, signs, st.sampled_from(PAIR_FAMILIES), involutions)
@settings(max_examples=40, deadline=None)
def test_solver_verdict_matches_oracle(seed, sign, family, involution):
    rng = random.Random(seed)
    force = seed % 2 == 0
    try:
        a, b, c = random_square_instance(rng, sign, 2, family, force, involution)
    except GenerationError:
        return  # rejection family can exhaust its draw budget
    result = oracle_solve(sign, a, b, c)
    ring = MatrixRing(2, involution=involution)
    from starsolve.solvers import UnsolvableError
    try:
        fam = solve(ring, sign, a, b, c)
        assert result.solvable
        agreement = verify_family_against_oracle(fam, result)
        assert agreement.ok, agreement.witnesses
    except UnsolvableError:
        assert not result.solvable


def solved_families(involution):
    """One solved exact family of every kind: square minus and plus in each
    pair family at n = 3, rect at dims 2,3,3 and 1,2,3, sym_right, sym_left."""
    rng = random.Random(f"kinds-{involution}")
    ring = MatrixRing(3, involution=involution)
    for sign in (MINUS, PLUS):
        for family in PAIR_FAMILIES:
            a, b, c = random_square_instance(rng, sign, 3, family, True, involution)
            yield solve(ring, sign, a, b, c)
        for dims in ((2, 3, 3), (1, 2, 3)):
            for family in RECT_FAMILIES:
                prob = random_rect_instance(rng, dims, family, True, involution, sign)
                yield solve_rect(prob, sign=sign)
    for side, solver in (("right", solve_sym_right), ("left", solve_sym_left)):
        a, b = random_sym_instance(rng, side, 3, True, involution)
        yield solver(ring, a, b)


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
def test_exact_image_check_holds_on_every_kind(involution):
    kinds = set()
    for fam in solved_families(involution):
        kinds.add((fam.kind, fam.sign, fam.a.shape))
        result = oracle_solve(fam.sign, fam.a, fam.b, fam.c)
        agreement = verify_family_against_oracle(fam, result)
        assert agreement.ok, (fam.kind, fam.sign, agreement.witnesses)
    assert len(kinds) == 8  # general x2 signs x3 shapes, sym_right, sym_left


def real_basis(shape, involution):
    """The unit matrices E_ij, and i E_ij unless the entries are real."""
    rows, cols = shape
    units = (1,) if involution == TRANSPOSE else (1, I)
    for i, j, unit in itertools.product(range(rows), range(cols), units):
        grid = [[0] * cols for _ in range(rows)]
        grid[i][j] = unit
        yield Matrix.exact(grid, involution)


# The paper's four coefficients of L(v) = v - (1/2)(p v q -/+ r v* s) in the
# factors: p = 2 g a, q = b* h, r = 2 g b, s = a* h.  Each entry names the
# factor a coefficient is built from and the term that, added to the factor,
# moves that coefficient by the identity (for invertible a and b).
COEFFICIENTS = {
    "p": (lambda f: f.g @ f.a + f.g @ f.a, "g", lambda f: inverse(f.a).half()),
    "q": (lambda f: f.b.star() @ f.h, "h", lambda f: inverse(f.b.star())),
    "r": (lambda f: f.g @ f.b + f.g @ f.b, "g", lambda f: inverse(f.b).half()),
    "s": (lambda f: f.a.star() @ f.h, "h", lambda f: inverse(f.a.star())),
}


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
@pytest.mark.parametrize("sign", (MINUS, PLUS))
@pytest.mark.parametrize("name", ("p", "q", "r", "s"))
def test_image_check_catches_identity_perturbation(name, sign, involution):
    # one coefficient of the paper's form plus the identity, on a general
    # family whose a (unitary) and b are both invertible
    rng = random.Random(83)
    a, b, c = random_square_instance(rng, sign, 3, "unitary", True, involution)
    while rank_factorization(b)[2] < 3:
        a, b, c = random_square_instance(rng, sign, 3, "unitary", True, involution)
    fam = solve(MatrixRing(3, involution=involution), sign, a, b, c)
    coefficient, factor, delta = COEFFICIENTS[name]
    bad = copy.copy(fam)
    setattr(bad, factor, getattr(fam, factor) + delta(fam))
    assert coefficient(bad) == coefficient(fam) + Matrix.identity(3, involution)
    agreement = verify_family_against_oracle(bad, oracle_solve(sign, a, b, c))
    assert not agreement.as_dict()["homogeneous_images_in_kernel"]
    assert any("depends on v" in w for w in agreement.witnesses)
    assert any(not equation_lhs(sign, a, b, bad.homogeneous(u)).is_zero()
               for u in real_basis((3, 3), involution))


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
@pytest.mark.parametrize("sign", (MINUS, PLUS))
@pytest.mark.parametrize("name", ("g", "h"))
def test_image_check_catches_factor_perturbation(name, sign, involution):
    # g or h plus the (rectangular) identity, on a family of every kind with
    # this sign.  eq(L(v)) is real-linear in v, so it vanishes iff it
    # vanishes on a real basis: the check must flag exactly the
    # perturbations that break L (where eq is zero on every v, as for b = 0,
    # any L is right).
    broken_kinds = set()
    for fam in (f for f in solved_families(involution) if f.sign == sign):
        factor = getattr(fam, name)
        bad = copy.copy(fam)
        setattr(bad, name, factor + Matrix.identity(max(factor.shape), involution)
                .block(0, 0, *factor.shape))
        broken = any(not equation_lhs(fam.sign, fam.a, fam.b, bad.homogeneous(u)).is_zero()
                     for u in real_basis(fam.x0.shape, involution))
        agreement = verify_family_against_oracle(bad, oracle_solve(fam.sign, fam.a, fam.b,
                                                                   fam.c))
        assert agreement.as_dict()["homogeneous_images_in_kernel"] != broken, fam.kind
        assert broken == any("depends on v" in w for w in agreement.witnesses)
        if broken:
            broken_kinds.add(fam.kind)
    assert broken_kinds == ({"general"} if sign == MINUS
                            else {"general", "sym_right", "sym_left"})


# -- generators --------------------------------------------------------------------


def test_random_unitary_is_unitary():
    rng = random.Random(41)
    for involution in (CONJUGATE_TRANSPOSE, TRANSPOSE):
        for size in (1, 2, 3):
            u = random_unitary(rng, size, involution)
            assert u @ u.star() == Matrix.identity(size, involution)


def test_random_coisometry_rows_orthonormal():
    rng = random.Random(43)
    u = random_coisometry(rng, 2, 4, CONJUGATE_TRANSPOSE)
    assert u @ u.star() == Matrix.identity(2)


def test_pair_families_satisfy_hypotheses():
    rng = random.Random(47)
    for family in PAIR_FAMILIES:
        for involution in (CONJUGATE_TRANSPOSE, TRANSPOSE):
            a, b = random_pair(rng, 2, family, involution)
            rep = check_hypotheses(MatrixRing(2, involution=involution), a, b)
            assert rep.ok, (family, involution)


def test_rect_families_satisfy_hypotheses():
    from starsolve.rect import check_rect_hypotheses
    rng = random.Random(53)
    for family in RECT_FAMILIES:
        prob = random_rect_instance(rng, (2, 3, 2), family)
        assert check_rect_hypotheses(prob).ok, family


def test_sym_generator_produces_both_verdicts():
    rng = random.Random(59)
    verdicts = set()
    ring = MatrixRing(2)
    for trial in range(60):
        a, b = random_sym_instance(rng, "right", 2, force_solvable=False)
        try:
            solve_sym_right(ring, a, b)
        except UnsolvableError:
            verdicts.add(False)
        else:
            verdicts.add(True)
    assert verdicts == {True, False}


def test_forced_instances_are_solvable():
    rng = random.Random(61)
    for sign in (MINUS, PLUS):
        a, b, c = random_square_instance(rng, sign, 2, "unitary", True)
        assert oracle_solve(sign, a, b, c).solvable


def test_rejection_family_raises_when_infeasible():
    # p < m starves the hermitian condition for the rect rejection family
    rng = random.Random(67)
    with pytest.raises(GenerationError):
        random_rect_instance(rng, (2, 2, 1), "rejection")


def test_unknown_family_rejected():
    rng = random.Random(71)
    with pytest.raises(ValueError):
        random_pair(rng, 2, "nope", CONJUGATE_TRANSPOSE)
    with pytest.raises(ValueError, match="unknown rect family"):
        random_rect_instance(rng, (2, 2, 2), "nope")


def test_generators_refuse_bad_arguments():
    rng = random.Random(73)
    with pytest.raises(ValueError, match="at least as many columns"):
        random_coisometry(rng, 3, 2)
    with pytest.raises(ValueError, match="sign must be one of"):
        random_square_instance(rng, "times", 2, "unitary")
    with pytest.raises(ValueError, match="side must be"):
        random_sym_instance(rng, "middle", 2)
