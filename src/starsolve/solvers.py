"""Closed-form solution families for a x b* -/+ b x* a* = c.

Everything here works over an abstract :class:`~starsolve.ring.StarRing`,
except that families draw their random parameters as matrices.  The
standing hypotheses on the pair (a, b) are

    range condition:      a a' b = b
    hermitian condition:  (a' b b' a)* = a' b b' a

(' denotes the MP-inverse).  Under them d = (1 - b b') a is MP-invertible
with d' = a' (1 - b b'), and the equation with either sign has an affine
solution set x0 + {L(v)} (see SolutionFamily) whenever the sign-appropriate
pair of solvability conditions on c holds.

Failed conditions are reported under stable names:

    "range_condition", "hermitian_condition"   hypothesis failures
    "c_star_neq_minus_c", "c_star_neq_c"       symmetry of c (minus/plus)
    "H_condition"                              the averaged projection identity
    "b_star_neq_b", "E_condition", "F_condition"  symmetric special cases
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .matrix import random_matrix
from .ring import Element, StarRing

MINUS = "minus"
PLUS = "plus"
SIGNS = (MINUS, PLUS)

# Condition and hypothesis checks on the float backend compare within
# CONDITION_RTOL * (1 + max abs over the participating elements).
CONDITION_RTOL = 1e-9


def _check_sign(sign: str):
    if sign not in SIGNS:
        raise ValueError(f"sign must be one of {SIGNS}, got {sign!r}")


def _tol_for(ring: StarRing, rtol: Optional[float], *elems) -> Optional[float]:
    """Absolute tolerance for zero tests, or None on exact rings."""
    scales = [ring.max_abs(e) for e in elems]
    if any(s is None for s in scales):
        return None
    return (CONDITION_RTOL if rtol is None else rtol) * (1.0 + max(scales, default=0.0))


@dataclass(frozen=True)
class HypothesisReport:
    """Checked hypotheses for a pair (a, b) plus the derived d, d'."""

    ring: StarRing
    a: Element
    b: Element
    a_dagger: Element
    b_dagger: Element
    d: Element
    d_dagger: Element
    range_ok: bool
    hermitian_ok: bool
    range_defect: Element      # a a' b - b
    hermitian_defect: Element  # (a' b b' a)* - a' b b' a
    tol: Optional[float] = None  # absolute tolerance the checks used (None = exact)

    @property
    def ok(self) -> bool:
        return self.range_ok and self.hermitian_ok

    def failed_names(self) -> tuple:
        names = []
        if not self.range_ok:
            names.append("range_condition")
        if not self.hermitian_ok:
            names.append("hermitian_condition")
        return tuple(names)


@dataclass(frozen=True)
class Condition:
    """One named solvability check; ``residual`` is the element that must vanish."""

    name: str
    ok: bool
    residual: Element
    tol: Optional[float] = None  # absolute tolerance the check used (None = exact)


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


def check_hypotheses(ring: StarRing, a: Element, b: Element,
                     rtol: Optional[float] = None) -> HypothesisReport:
    """Evaluate the range and hermitian conditions for the pair (a, b).

    ``ring`` supplies the operations and must be the ring of c: for
    rectangular a (m x n) and b (m x p), the m x m matrix ring.
    NotMpInvertibleError propagates.  Exact rings compare strictly; float
    rings within rtol * (1 + max abs).
    """
    a_dagger = ring.mp_inverse(a)
    b_dagger = ring.mp_inverse(b)
    tol = _tol_for(ring, rtol, a, b, a_dagger, b_dagger)

    aad = ring.multiply(a, a_dagger)
    range_defect = ring.subtract(ring.multiply(aad, b), b)
    range_ok = ring.is_zero(range_defect, tol)

    h = ring.multiply(ring.multiply(a_dagger, b), ring.multiply(b_dagger, a))
    hermitian_defect = ring.subtract(ring.star(h), h)
    hermitian_ok = ring.is_zero(hermitian_defect, tol)

    e_b = ring.proj_complement_left(b, b_dagger)
    d = ring.multiply(e_b, a)
    d_dagger = ring.multiply(a_dagger, e_b)
    return HypothesisReport(ring, a, b, a_dagger, b_dagger, d, d_dagger,
                            range_ok, hermitian_ok, range_defect, hermitian_defect, tol)


def _require_ok(report: HypothesisReport):
    if not report.ok:
        raise HypothesesFailError(report)


def particular(sign: str, report: HypothesisReport, c: Element) -> Element:
    """One solution of a x b* -/+ b x* a* = c, valid under the solvability
    conditions for the given sign.

    x0 = (1/2) a'c (b')* - (1/2) a'b b'c (b'a d')* + (1/2) d'c (b')*

    The same expression serves both signs; the sign argument only gates
    validity (callers should have checked solvability for that sign).
    """
    _check_sign(sign)
    _require_ok(report)
    r = report.ring
    a, b = report.a, report.b
    ad, bd, dd = report.a_dagger, report.b_dagger, report.d_dagger
    bd_star = r.star(bd)

    t1 = r.multiply(r.multiply(ad, c), bd_star)
    abb = r.multiply(r.multiply(ad, b), bd)
    inner = r.multiply(r.multiply(bd, a), dd)
    t2 = r.multiply(r.multiply(abb, c), r.star(inner))
    t3 = r.multiply(r.multiply(dd, c), bd_star)

    out = r.subtract(r.half_of(t1), r.half_of(t2))
    return r.add(out, r.half_of(t3))


def solvability_conditions(sign: str, report: HypothesisReport, c: Element,
                           rtol: Optional[float] = None) -> tuple:
    """The sign-appropriate pair of named conditions on c.

    With m = (a a' + d d') c b b':  minus requires c* = -c and m - m* = 2c;
    plus requires c* = c and m + m* = 2c.
    """
    _check_sign(sign)
    _require_ok(report)
    r = report.ring
    tol = _tol_for(r, rtol, report.a, report.b, report.a_dagger, report.b_dagger, c)
    c_star = r.star(c)

    if sign == MINUS:
        sym_name, sym_defect = "c_star_neq_minus_c", r.add(c_star, c)
    else:
        sym_name, sym_defect = "c_star_neq_c", r.subtract(c_star, c)
    sym = Condition(sym_name, r.is_zero(sym_defect, tol), sym_defect, tol)

    proj = r.add(r.multiply(report.a, report.a_dagger),
                 r.multiply(report.d, report.d_dagger))
    m = r.multiply(r.multiply(proj, c), r.multiply(report.b, report.b_dagger))
    if sign == MINUS:
        h = r.subtract(m, r.star(m))
    else:
        h = r.add(m, r.star(m))
    h_defect = r.subtract(h, r.add(c, c))
    hcond = Condition("H_condition", r.is_zero(h_defect, tol), h_defect, tol)
    return (sym, hcond)


def equation_lhs(ring: StarRing, sign: str, a: Element, b: Element, x: Element) -> Element:
    """a x b* -/+ b x* a* evaluated at x."""
    _check_sign(sign)
    left = ring.multiply(ring.multiply(a, x), ring.star(b))
    right = ring.multiply(ring.multiply(b, ring.star(x)), ring.star(a))
    return ring.subtract(left, right) if sign == MINUS else ring.add(left, right)


@dataclass
class SolutionFamily:
    """The full solution set of a x b* -/+ b x* a* = c, as x0 + L(v) with

        L(v) = v - (1/2) p v q + sigma (1/2) r v* s,

    sigma = +1 for minus and -1 for plus.  L is idempotent and its image is
    exactly the solution set of the homogeneous equation.  By ``kind``:

        kind        sign   p            q          r        s
        general     -/+    a'a + d'a    b'b        a'b      (b'a - b'a d'a)*
        sym_right   plus   1 + E_a      a'a        a        (a')*
        sym_left    plus   a a'         1 + F_a    (a')*    a

    Rectangular instances are the general kind on rectangular operands; the
    ring is then the m x m ring of c and v ranges over n x p matrices.  The
    symmetric rows use the symmetric equation's own a; those families store
    the equivalent general-form triple (a, b, c) -- (1, a, b) for sym_right,
    (a*, 1, b) for sym_left -- so residuals are uniform.  ``report`` is the
    hypothesis report (None for the symmetric kinds) and ``conditions`` the
    solvability conditions the solver checked.
    """

    ring: StarRing
    sign: str
    a: Element
    b: Element
    c: Element
    x0: Element
    p: Element
    q: Element
    r: Element
    s: Element
    kind: str
    report: Optional[HypothesisReport]
    conditions: tuple

    def homogeneous(self, v: Element) -> Element:
        """L(v): a solution of the homogeneous equation."""
        ring = self.ring
        t = ring.half_of(ring.multiply(ring.multiply(self.p, v), self.q))
        u = ring.half_of(ring.multiply(ring.multiply(self.r, ring.star(v)), self.s))
        out = ring.subtract(v, t)
        return ring.add(out, u) if self.sign == MINUS else ring.subtract(out, u)

    def at(self, v: Element) -> Element:
        """x0 + L(v)."""
        return self.ring.add(self.x0, self.homogeneous(v))

    def residual(self, x: Element) -> Element:
        """a x b* -/+ b x* a* - c; zero iff x solves the equation."""
        return self.ring.subtract(equation_lhs(self.ring, self.sign, self.a, self.b, x), self.c)

    def is_solution(self, x: Element, rtol: Optional[float] = None) -> bool:
        tol = _tol_for(self.ring, rtol, self.a, self.b, self.c, x)
        return self.ring.is_zero(self.residual(x), tol)

    def draw_parameter(self, rng: random.Random) -> Element:
        """A small pseudorandom parameter v, shaped like x0."""
        return random_matrix(rng, *self.x0.shape, self.x0.backend, self.x0.involution)

    def sample(self, seed: int) -> Element:
        """Deterministic family member for a seed."""
        return self.at(self.draw_parameter(random.Random(seed)))


def _general_coefficients(report: HypothesisReport) -> tuple:
    """(p, q, r, s) of the general family; see SolutionFamily."""
    ring = report.ring
    a, b = report.a, report.b
    bda = ring.multiply(report.b_dagger, a)
    dda = ring.multiply(report.d_dagger, a)
    return (ring.add(ring.multiply(report.a_dagger, a), dda),
            ring.multiply(report.b_dagger, b),
            ring.multiply(report.a_dagger, b),
            ring.star(ring.subtract(bda, ring.multiply(bda, dda))))


def solve(ring: StarRing, sign: str, a: Element, b: Element, c: Element,
          rtol: Optional[float] = None) -> SolutionFamily:
    """Solve a x b* -/+ b x* a* = c.

    ``ring`` is the ring of c, as for check_hypotheses.  Raises
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
    x0 = particular(sign, report, c)
    return SolutionFamily(ring, sign, a, b, c, x0, *_general_coefficients(report),
                          "general", report, conditions)


def _sym_conditions(ring: StarRing, b: Element, proj: Element, proj_name: str,
                    rtol: Optional[float], *scale_elems) -> tuple:
    tol = _tol_for(ring, rtol, b, *scale_elems)
    sym_defect = ring.subtract(ring.star(b), b)
    sym = Condition("b_star_neq_b", ring.is_zero(sym_defect, tol), sym_defect, tol)
    squeeze = ring.multiply(ring.multiply(proj, b), proj)
    cond = Condition(proj_name, ring.is_zero(squeeze, tol), squeeze, tol)
    return (sym, cond)


def _sym_setup(ring: StarRing, side: str, a: Element, b: Element,
               rtol: Optional[float]):
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    a_dagger = ring.mp_inverse(a)
    if side == "right":
        proj = ring.proj_complement_left(a, a_dagger)
        name = "E_condition"
    else:
        proj = ring.proj_complement_right(a, a_dagger)
        name = "F_condition"
    conditions = _sym_conditions(ring, b, proj, name, rtol, a, a_dagger)
    return conditions, a_dagger, proj


def sym_solvability_conditions(ring: StarRing, side: str, a: Element, b: Element,
                               rtol: Optional[float] = None) -> tuple:
    """Named conditions for x a* + a x* = b ("right") or a* x + x* a = b ("left")."""
    return _sym_setup(ring, side, a, b, rtol)[0]


def _solve_sym(ring: StarRing, side: str, a: Element, b: Element,
               rtol: Optional[float]) -> SolutionFamily:
    conditions, a_dagger, proj = _sym_setup(ring, side, a, b, rtol)
    if not all(cond.ok for cond in conditions):
        raise UnsolvableError(conditions)
    one_plus_proj = ring.add(ring.one(), proj)
    ad_star = ring.star(a_dagger)
    if side == "right":
        x0 = ring.half_of(ring.multiply(one_plus_proj, ring.multiply(b, ad_star)))
        return SolutionFamily(ring, PLUS, ring.one(), a, b, x0,
                              one_plus_proj, ring.multiply(a_dagger, a), a, ad_star,
                              "sym_right", None, conditions)
    x0 = ring.half_of(ring.multiply(ring.multiply(ad_star, b), one_plus_proj))
    return SolutionFamily(ring, PLUS, ring.star(a), ring.one(), b, x0,
                          ring.multiply(a, a_dagger), one_plus_proj, ad_star, a,
                          "sym_left", None, conditions)


def solve_sym_right(ring: StarRing, a: Element, b: Element,
                    rtol: Optional[float] = None) -> SolutionFamily:
    """Solve x a* + a x* = b.

    Solvable iff b* = b and E_a b E_a = 0 with E_a = 1 - a a'.  The family is

        x(v) = (1/2)(1 + E_a)(b (a')* - v a'a) + v - (1/2) a v* (a')*

    recorded as the general-form triple (1, a, b) with the plus sign.
    """
    return _solve_sym(ring, "right", a, b, rtol)


def solve_sym_left(ring: StarRing, a: Element, b: Element,
                   rtol: Optional[float] = None) -> SolutionFamily:
    """Solve a* x + x* a = b.

    Solvable iff b* = b and F_a b F_a = 0 with F_a = 1 - a'a.  The family is

        x(w) = (1/2)((a')* b - a a' w)(1 + F_a) + w - (1/2) (a')* w* a

    recorded as the general-form triple (a*, 1, b) with the plus sign.
    """
    return _solve_sym(ring, "left", a, b, rtol)
