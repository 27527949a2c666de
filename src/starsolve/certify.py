"""Exact certificate of a solution family, with no elimination.

A family is x0 + image(L) with x0 = P(c), L(v) = v - P(eq(v)) and
P(w) = g w h (solvers.SolutionFamily).  By Penrose's consistency form
(Proc. Cambridge Philos. Soc. 51, 1955), two exact facts prove that this
is the whole solution set of eq(x) = c:

  (i)  x0's residual is zero, so the equation is solvable;
  (ii) eq(L(v)) = 0 for every v, that is eq(P(eq(v))) = eq(v), checked
       coefficient by coefficient, with no random draw and no kernel basis.

L fixes every v with eq(v) = 0 by construction, so with (ii) L is an
idempotent onto that kernel (L(L(v)) = L(v) - P(eq(L(v))) = L(v)), and the
kernel's real dimension is the real trace of L.  With eps = -1 (minus) or
+1 (plus), L(v) = v - (g a) v (b* h) - eps (g b) v* (a* h); the starred term
has real trace 0 on complex entries, so on X: n x p

    conjugate transpose:  2np - 2 Re(tr(g a) tr(b* h))
    transpose:            np - tr(g a) tr(b* h) - eps sum_ij (g b)_ij (a* h)_ij

The CLI's `solve --oracle` reports this certificate; oracle.py holds it
against the exact elimination (verify_family_against_oracle).  Everything
here stays on integer grids.
"""

import math
from itertools import product
from operator import add
from typing import NamedTuple, Optional

from .solvers import MINUS, SolutionFamily
from .tags import EXACT, TRANSPOSE


class OracleAgreement(NamedTuple):
    """Certificate of a closed-form family: together the two flags prove that
    x0 + image(L) is the equation's solution set, and ``real_dimension`` is
    then its real dimension (the trace of L; None when that trace is not an
    integer).  Every failed fact leaves one witness."""

    x0_ok: bool
    homogeneous_in_kernel_ok: bool
    real_dimension: Optional[int]
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.x0_ok and self.homogeneous_in_kernel_ok and not self.witnesses

    def as_dict(self) -> dict:
        return {"x0_in_oracle_set": self.x0_ok,
                # L(v) = v - P(eq(v)) is v on every kernel element: true by construction
                "kernel_elements_fixed": True,
                "homogeneous_images_in_kernel": self.homogeneous_in_kernel_ok,
                "witnesses": list(self.witnesses)}


def _coefficients(linear, starred):
    """Coefficients of v -> sum X v Y + sum X' v* Y', given the exact (X, Y)
    pairs (non-empty) and (X', Y') pairs, over one denominator: returns
    ``(den, coefficients)``, where each (r, s, i, j, alpha, beta) adds
    (alpha v[i][j] + beta conj(v[i][j])) / den to out[r][s], alpha and beta
    Gaussian integers as (re, im) pairs."""
    den = math.lcm(*(x.grids[2] * y.grids[2] for x, y in (*linear, *starred)))

    def scaled(pairs):  # X scaled so that each product X[r][i] Y[j][s] is over den
        out = []
        for x, y in pairs:
            (xre, xim, dx), (yre, yim, dy) = x.grids, y.grids
            k = den // (dx * dy)
            out.append(([[k * e for e in row] for row in xre],
                        [[k * e for e in row] for row in xim], yre, yim))
        return out

    def coefficient(pairs, r, i, j, s):
        re = im = 0
        for xre, xim, yre, yim in pairs:
            a, b, c, d = xre[r][i], xim[r][i], yre[j][s], yim[j][s]
            re += a * c - b * d
            im += a * d + b * c
        return re, im

    lin, star = scaled(linear), scaled(starred)
    x, y = linear[0]
    return den, ((r, s, i, j, coefficient(lin, r, i, j, s), coefficient(star, r, j, i, s))
                 for r, s, i, j in product(range(x.rows), range(y.cols), range(x.cols),
                                           range(y.rows)))


def _trace(m) -> tuple:
    """tr(m) of a square exact matrix as Gaussian-integer parts over m's
    denominator: (re, im, d)."""
    re, im, d = m.grids
    return sum(re[i][i] for i in range(m.rows)), sum(im[i][i] for i in range(m.rows)), d


def _real_trace(fam: SolutionFamily) -> tuple:
    """The real trace of L as integers (numerator, denominator), from the
    closed form in the module docstring."""
    a, b, g, h = fam.a, fam.b, fam.g, fam.h
    np_ = a.cols * b.cols
    gre, gim, dg = _trace(g @ a)
    hre, him, dh = _trace(b.star() @ h)
    if a.involution != TRANSPOSE:
        return 2 * (np_ * dg * dh - (gre * hre - gim * him)), dg * dh
    (ure, _, du), (wre, _, dw) = (g @ b).grids, (a.star() @ h).grids
    cross = sum(x * y for ur, wr in zip(ure, wre) for x, y in zip(ur, wr))
    eps = -1 if fam.sign == MINUS else 1
    return (np_ * dg * dh * du * dw - gre * hre * du * dw - eps * cross * dg * dh,
            dg * dh * du * dw)


def certify_family(fam: SolutionFamily) -> OracleAgreement:
    """Certify, exactly and with no elimination, that the family is the
    equation's solution set and read its real dimension off the trace of L.

    (ii) is checked on the coefficient table of
    eq(L(v)) = eq(v) - eq(g eq(v) h): each coefficient pair (alpha, beta)
    must vanish (their sum under the transpose, where v is real).  With
    eps = -1 (minus) or +1 (plus), eq(w)* = eps eq(w), so
    eq(g w h) = (a g) w (h b*) + (b h*) w (g* a*) at w = eq(v), and
    eq(L(v)) = B(v) + eps B(v)* with
    B(v) = a v b* - (a g a) v (b* h b*) - (b h* a) v (b* g* a*).
    """
    if fam.x0.backend != EXACT:
        raise ValueError("the certificate works on the exact backend only")
    witnesses = []
    x0_ok = fam.residual(fam.x0).is_zero()
    if not x0_ok:
        witnesses.append("x0's exact residual is not zero")

    a, b, g, h = fam.a, fam.b, fam.g, fam.h
    bs, ag, bh, gas = b.star(), a @ g, b @ h.star(), g.star() @ a.star()
    linear = [(a, bs), ((ag @ a).neg(), bs @ h @ bs), ((bh @ a).neg(), bs @ gas)]
    # (X v Y)* = Y* v* X*
    starred = [(y.star().neg() if fam.sign == MINUS else y.star(), x.star())
               for x, y in linear]
    real = a.involution == TRANSPOSE
    homogeneous_ok = True
    for r, s, i, j, alpha, beta in _coefficients(linear, starred)[1]:
        if any(map(add, alpha, beta)) if real else any(alpha) or any(beta):
            homogeneous_ok = False
            witnesses.append(f"eq(L(v))[{r}][{s}] depends on v[{i}][{j}]")
            break

    num, den = _real_trace(fam)
    real_dimension = num // den if num % den == 0 else None
    if real_dimension is None:
        common = math.gcd(num, den)
        witnesses.append(f"the real trace of L is {num // common}/{den // common}, "
                         "not an integer")
    return OracleAgreement(x0_ok, homogeneous_ok, real_dimension, tuple(witnesses))
