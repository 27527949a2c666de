"""Closed-form solution families for a x b* -/+ b x* a* = c.

The paper states the theory for any ring with involution in which 2 is
invertible; this package realizes it with matrices, so everything here
works on :class:`~starsolve.matrix.Matrix` directly.  The entry points
still take the ring of c as ``ring``, as the benchmark harness (perfbench/)
calls them so, but nothing here reads it.  The standing hypotheses on the
pair (a, b) are

    range condition:      a a' b = b
    hermitian condition:  (a' b b' a)* = a' b b' a

(' denotes the MP-inverse).  Under them the equation with either sign has
an affine solution set x0 + {L(v)} whenever the sign-appropriate pair of
solvability conditions on c holds: x0 = g c h and L(v) = v - g eq(v) h,
eq(v) the equation's left side, for one pair (g, h) per kind (see
SolutionFamily).  The range condition reduces the paper's
d = (1 - b b') a and d' = a' - a'b b' away:

    b'a d' = 0          as b' a a' = b' b'* (b* a a') = b' b'* b* = b'
    d d' = a a' - b b'  as a a' b b' = b b' and, by adjoint, b b' a a' = b b'

Failed conditions are reported under stable names:

    "range_condition", "hermitian_condition"   hypothesis failures
    "c_star_neq_minus_c", "c_star_neq_c"       symmetry of c (minus/plus)
    "H_condition"                              the averaged projection identity
    "b_star_neq_b", "E_condition", "F_condition"  symmetric special cases

On the float backend every check is a zero test of its residual against
``tags.tolerance(rtol, ...)`` over that residual's own terms, so verdicts
do not change when an instance is rescaled.
"""

from typing import NamedTuple, Optional

from . import matrix
from .matrix import Matrix
from .ring import MatrixRing
from .tags import RTOL, tolerance

MINUS = "minus"
PLUS = "plus"
SIGNS = (MINUS, PLUS)


def _check_sign(sign: str):
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")


def _check_side(side: str):
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")


class Condition(NamedTuple):
    """One named check; ``residual`` is the matrix that must vanish."""

    name: str
    ok: bool
    residual: Matrix
    tol: Optional[float]  # absolute tolerance the check used (None = exact)


def _condition(name: str, residual: Matrix, rtol: float, *terms) -> Condition:
    """Zero-test ``residual`` against the tolerance of its ``terms``."""
    tol = tolerance(rtol, *terms)
    return Condition(name, residual.is_zero(tol), residual, tol)


class HypothesisReport(NamedTuple):
    """Checked hypotheses for a pair (a, b).

    It also carries the products the closed form keeps reusing, each
    computed once here: a a' and b b' (the H condition's projections), and
    a' b (a factor of the hermitian condition, which g reuses).
    """

    a: Matrix
    b: Matrix
    a_dagger: Matrix
    b_dagger: Matrix
    a_a_dagger: Matrix              # a a'
    b_b_dagger: Matrix              # b b'
    a_dagger_b: Matrix              # a' b
    range_condition: Condition      # residual a a' b - b
    hermitian_condition: Condition  # residual (a' b b' a)* - a' b b' a

    @property
    def conditions(self) -> tuple:
        return (self.range_condition, self.hermitian_condition)

    @property
    def ok(self) -> bool:
        return all(cond.ok for cond in self.conditions)

    def failed_names(self) -> tuple:
        return tuple(cond.name for cond in self.conditions if not cond.ok)


class HypothesesFailError(Exception):
    """The pair (a, b) violates the range or hermitian condition."""

    def __init__(self, report: HypothesisReport):
        self.report = report
        super().__init__(f"hypotheses fail: {', '.join(report.failed_names())}")


class UnsolvableError(Exception):
    """The solvability conditions on c do not hold."""

    def __init__(self, conditions, report: Optional[HypothesisReport] = None):
        self.conditions = tuple(conditions)
        self.report = report
        self.failed = tuple(c.name for c in self.conditions if not c.ok)
        super().__init__(f"unsolvable: {', '.join(self.failed)}")


def check_hypotheses(ring: MatrixRing, a: Matrix, b: Matrix,
                     rtol: float = RTOL) -> HypothesisReport:
    """Evaluate the range and hermitian conditions for the pair (a, b).

    ``ring`` is the ring of c; nothing reads it (see the module docstring).
    NotMpInvertibleError propagates.  The exact backend compares strictly;
    floats judge the range residual against a a' b and b, the hermitian one
    against a' b b' a (see tags.tolerance).
    """
    a_dagger = matrix.mp_inverse(a)
    a_a_dagger, a_dagger_b = a @ a_dagger, a_dagger @ b
    if b == a:  # then b' = a', b b' = a a' and b' a = a' b
        b_dagger, b_b_dagger, bd_a = a_dagger, a_a_dagger, a_dagger_b
    else:
        b_dagger = matrix.mp_inverse(b)
        b_b_dagger, bd_a = b @ b_dagger, b_dagger @ a
    aab = a_a_dagger @ b
    h = a_dagger_b @ bd_a  # a' b b' a
    return HypothesisReport(a, b, a_dagger, b_dagger, a_a_dagger, b_b_dagger, a_dagger_b,
                            _condition("range_condition", aab - b, rtol, aab, b),
                            _condition("hermitian_condition", h.star() - h, rtol, h))


def _require_ok(report: HypothesisReport):
    if not report.ok:
        raise HypothesesFailError(report)


def _general_pair(report: HypothesisReport) -> tuple:
    """(g, h) of the general family: g = a' - (1/2) a'b b', h = (b')*."""
    g = report.a_dagger - (report.a_dagger_b @ report.b_dagger).half()
    return g, report.b_dagger.star()


def particular(sign: str, report: HypothesisReport, c: Matrix) -> Matrix:
    """One solution of a x b* -/+ b x* a* = c, valid under the solvability
    conditions for the given sign.

    x0 = g c h with the general (g, h) of SolutionFamily: the paper's
    x0 = (1/2) (a' + d') c (b')* without its middle term
    - (1/2) a'b b'c (b'a d')*, as b'a d' = 0, and g = (1/2) (a' + d').

    The same expression serves both signs; the sign argument only gates
    validity (callers should have checked solvability for that sign).
    """
    _check_sign(sign)
    _require_ok(report)
    g, h = _general_pair(report)
    return g @ c @ h


def solvability_conditions(sign: str, report: HypothesisReport, c: Matrix,
                           rtol: float = RTOL) -> tuple:
    """The sign-appropriate pair of named conditions on c.

    With m = (a a' + d d') c b b' = (2 a a' - b b') c b b':  minus requires
    c* = -c and m - m* = 2c; plus requires c* = c and m + m* = 2c.  Floats
    judge the first against c, the second against m and c.
    """
    _check_sign(sign)
    _require_ok(report)
    if sign == MINUS:
        sym = _condition("c_star_neq_minus_c", c.star() + c, rtol, c)
    else:
        sym = _condition("c_star_neq_c", c.star() - c, rtol, c)

    proj = report.a_a_dagger + report.a_a_dagger - report.b_b_dagger
    m = proj @ c @ report.b_b_dagger
    h = m - m.star() if sign == MINUS else m + m.star()
    return (sym, _condition("H_condition", h - (c + c), rtol, m, c))


def equation_lhs(sign: str, a: Matrix, b: Matrix, x: Matrix) -> Matrix:
    """a x b* -/+ b x* a* evaluated at x; b x* a* is (a x b*)*."""
    _check_sign(sign)
    left = a @ x @ b.star()
    right = left.star()
    return left - right if sign == MINUS else left + right


def residual_condition(residual: Matrix, rtol: float, a: Matrix, b: Matrix, c: Matrix,
                       x: Matrix) -> Condition:
    """The zero test of ``residual``, the residual a x b* -/+ b x* a* - c at x.

    The one rule for judging a claimed solution, shared by
    SolutionFamily.judge and the CLI's ``verify``: exact on the exact
    backend; else, as the residual's terms are the products a x b*, b x* a*
    and c, against |a| |x| |b| and |c| (max abs).
    """
    return _condition("residual", residual, rtol, (a, x, b), c)


class SolutionFamily:
    """The full solution set of a x b* -/+ b x* a* = c, as x0 + L(v) with

        x0 = P(c),   L(v) = v - P(eq(v)),   P(w) = g w h,

    eq(v) = a v b* -/+ b v* a* the equation's left side: Penrose's
    X = A- C B- + Y - A-A Y B B- for A X B = C.  L fixes every solution of
    the homogeneous equation, and its image is exactly that solution set.
    By ``kind`` (' the MP-inverse, E_a = 1 - a a', F_a = 1 - a'a):

        kind        sign   g                      h
        general     -/+    a' - (1/2) a'b b'      (b')*
        sym_right   plus   (1/2) (1 + E_a)        (a')*
        sym_left    plus   (1/2) (a')*            1 + F_a

    Rectangular instances are the general kind on rectangular operands; c
    is then m x m and v ranges over n x p matrices.  The symmetric rows use
    the symmetric equation's own a; those families store the equivalent
    general-form triple (a, b, c) of sym_general_form, so residuals and L
    are uniform.  ``report`` is the hypothesis report (None for the
    symmetric kinds), ``conditions`` the solvability conditions the solver
    checked, and ``rtol`` the relative float tolerance it checked them with.
    Attributes stay assignable, so a caller can perturb a family.
    """

    def __init__(self, sign: str, a: Matrix, b: Matrix, c: Matrix, g: Matrix,
                 h: Matrix, kind: str, report: Optional[HypothesisReport],
                 conditions: tuple, rtol: float = RTOL):
        self.sign, self.a, self.b, self.c, self.g, self.h = sign, a, b, c, g, h
        self.x0 = g @ c @ h
        self.kind, self.report, self.conditions, self.rtol = kind, report, conditions, rtol

    def homogeneous(self, v: Matrix) -> Matrix:
        """L(v) = v - g eq(v) h: a solution of the homogeneous equation."""
        return v - self.g @ equation_lhs(self.sign, self.a, self.b, v) @ self.h

    def at(self, v: Matrix) -> Matrix:
        """x0 + L(v)."""
        return self.x0 + self.homogeneous(v)

    def residual(self, x: Matrix) -> Matrix:
        """a x b* -/+ b x* a* - c; zero iff x solves the equation."""
        return equation_lhs(self.sign, self.a, self.b, x) - self.c

    def judge(self, x: Matrix) -> Condition:
        """Whether x solves the equation, by :func:`residual_condition` at ``rtol``."""
        return residual_condition(self.residual(x), self.rtol, self.a, self.b, self.c, x)

    def sample(self, seed: int) -> Matrix:
        """Deterministic family member x0 + L(v), v small and drawn from the seed."""
        import random
        from .draws import random_matrix  # only a run that samples loads the draws
        rng = random.Random(seed)
        return self.at(random_matrix(rng, *self.x0.shape, self.x0.backend, self.x0.involution))


def solve(ring: MatrixRing, sign: str, a: Matrix, b: Matrix, c: Matrix,
          rtol: float = RTOL) -> SolutionFamily:
    """Solve a x b* -/+ b x* a* = c.

    ``ring`` is the ring of c; nothing reads it.  Raises
    HypothesesFailError when the pair (a, b) violates the standing
    hypotheses (the equation may still be solvable; the oracle can decide),
    UnsolvableError when the conditions on c fail, and propagates
    NotMpInvertibleError from the MP-inverse.
    """
    report = check_hypotheses(ring, a, b, rtol)
    _require_ok(report)
    conditions = solvability_conditions(sign, report, c, rtol)
    if not all(cond.ok for cond in conditions):
        raise UnsolvableError(conditions, report)
    return SolutionFamily(sign, a, b, c, *_general_pair(report), "general", report,
                          conditions, rtol)


def sym_general_form(side: str, a: Matrix, b: Matrix) -> tuple:
    """(A, B, C) with the symmetric equation written as A x B* + B x* A* = C:
    (1, a, b) for x a* + a x* = b ("right"), (a*, 1, b) for a* x + x* a = b
    ("left")."""
    _check_side(side)
    one = Matrix.identity(a.rows, a.involution, a.backend)
    return (one, a, b) if side == "right" else (a.star(), one, b)


def _solve_sym(side: str, a: Matrix, b: Matrix, rtol: float) -> SolutionFamily:
    general = sym_general_form(side, a, b)  # refuses an unknown side first
    a_dagger = matrix.mp_inverse(a)
    if side == "right":
        one, name = general[0], "E_condition"  # (1, a, b)
        proj = one - a @ a_dagger
    else:
        one, name = general[1], "F_condition"  # (a*, 1, b)
        proj = one - a_dagger @ a
    conditions = (_condition("b_star_neq_b", b.star() - b, rtol, b),
                  _condition(name, proj @ b @ proj, rtol, b))
    if not all(cond.ok for cond in conditions):
        raise UnsolvableError(conditions)
    one_plus_proj, ad_star = one + proj, a_dagger.star()
    g, h = ((one_plus_proj.half(), ad_star) if side == "right"
            else (ad_star.half(), one_plus_proj))
    return SolutionFamily(PLUS, *general, g, h, "sym_" + side, None, conditions, rtol)


def solve_sym_right(ring: MatrixRing, a: Matrix, b: Matrix,
                    rtol: float = RTOL) -> SolutionFamily:
    """Solve x a* + a x* = b.

    Solvable iff b* = b and E_a b E_a = 0 with E_a = 1 - a a'.  The family is

        x(v) = (1/2)(1 + E_a)(b (a')* - v a'a) + v - (1/2) a v* (a')*

    recorded as the general-form triple (1, a, b) with the plus sign.
    """
    return _solve_sym("right", a, b, rtol)


def solve_sym_left(ring: MatrixRing, a: Matrix, b: Matrix,
                   rtol: float = RTOL) -> SolutionFamily:
    """Solve a* x + x* a = b.

    Solvable iff b* = b and F_a b F_a = 0 with F_a = 1 - a'a.  The family is

        x(w) = (1/2)((a')* b - a a' w)(1 + F_a) + w - (1/2) (a')* w* a

    recorded as the general-form triple (a*, 1, b) with the plus sign.
    """
    return _solve_sym("left", a, b, rtol)
