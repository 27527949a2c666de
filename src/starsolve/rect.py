"""Rectangular A X B* - B X* A* = C via embedding into a square matrix ring.

With A: m x n, B: m x p, C: m x m over a common backend/involution, the
problem embeds into the order-k ring, k = m + n + p, as the square problem

    a = [0 A 0; 0 0 0; 0 0 0],  b = [0 0 B; 0 0 0; 0 0 0],
    c = [C 0 0; 0 0 0; 0 0 0],

block rows/columns sized (m, n, p): a RectProblem with dims (k, k, k), as
is every square problem.  The square equation a x b* - b x* a* = c holds
iff the (2,3) block X of x solves the rectangular equation.  The
square solver's formulas also evaluate verbatim on the rectangular operands
(every product conforms) in the m x m ring of C, which is how
:func:`solve_rect` computes directly; the embedding is the cross-check.

Note the shape normalization: B must be m x p for A X B* to exist; the
p x m convention seen elsewhere refers to B*.
"""

from typing import NamedTuple, Tuple

from .matrix import Matrix
from .ring import MatrixRing
from .solvers import MINUS, HypothesisReport, SolutionFamily, check_hypotheses, solve
from .tags import RTOL

Dims = Tuple[int, int, int]


class RectProblem(NamedTuple("_Operands", [("a", Matrix), ("b", Matrix), ("c", Matrix)])):
    """Operands of A X B* - B X* A* = C with A: m x n, B: m x p, C: m x m.

    An immutable named triple, equal and hashed by its operands (so equal
    to the plain tuple (a, b, c)); every way to build one (the constructor,
    ``_make``, ``_replace``, copy, pickle) goes through the check in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, a: Matrix, b: Matrix, c: Matrix):
        for other in (b, c):
            a._check_tags(other)
        m = a.rows
        if b.rows != m or c.shape != (m, m):
            raise ValueError(
                f"need A: m x n, B: m x p, C: m x m; got {a.shape}, {b.shape}, {c.shape}")
        if m < 1 or a.cols < 1 or b.cols < 1:
            raise ValueError("all of m, n, p must be at least 1")
        return super().__new__(cls, a, b, c)

    @classmethod
    def _make(cls, iterable) -> "RectProblem":  # the inherited one skips __new__
        return cls(*iterable)

    @property
    def dims(self) -> Dims:
        return (self.a.rows, self.a.cols, self.b.cols)

    def ring(self) -> MatrixRing:
        """The m x m ring of C; it supplies the operations on A, B and X."""
        return MatrixRing(self.a.rows, self.a.backend, self.a.involution)

    def to_float(self) -> "RectProblem":
        return RectProblem(self.a.to_float(), self.b.to_float(), self.c.to_float())


def embed(problem: RectProblem) -> RectProblem:
    """The square problem of order k = m + n + p (dims (k, k, k)): A at block
    (1,2), B at block (1,3), C at block (1,1)."""
    m, n, p = problem.dims
    k = m + n + p
    base = Matrix.zeros(k, k, problem.a.involution, problem.a.backend)
    return RectProblem(base.paste(0, m, problem.a), base.paste(0, m + n, problem.b),
                       base.paste(0, 0, problem.c))


def embed_mp(a_dagger: Matrix, b_dagger: Matrix, dims: Dims) -> Tuple[Matrix, Matrix]:
    """Embedded MP-inverses: A-dagger at block (2,1), B-dagger at block (3,1).

    These satisfy the Penrose equations against the embedded a and b.
    """
    m, n, p = dims
    if a_dagger.shape != (n, m) or b_dagger.shape != (p, m):
        raise ValueError(
            f"expected A-dagger {n}x{m} and B-dagger {p}x{m}; got "
            f"{a_dagger.shape}, {b_dagger.shape}")
    k = m + n + p
    base = Matrix.zeros(k, k, a_dagger.involution, a_dagger.backend)
    return base.paste(m, 0, a_dagger), base.paste(m + n, 0, b_dagger)


def extract_solution(x: Matrix, dims: Dims) -> Matrix:
    """The (2,3) block of a square solution: the rectangular X (n x p)."""
    m, n, p = dims
    if x.shape != (m + n + p, m + n + p):
        raise ValueError(f"expected a {m + n + p}-square matrix, got {x.shape}")
    return x.block(m, m + n, n, p)


def embed_solution(x: Matrix, dims: Dims) -> Matrix:
    """The canonical square solution carrying X in block (2,3), zeros elsewhere."""
    m, n, p = dims
    if x.shape != (n, p):
        raise ValueError(f"expected X of shape {n}x{p}, got {x.shape}")
    k = m + n + p
    return Matrix.zeros(k, k, x.involution, x.backend).paste(m, m + n, x)


def check_rect_hypotheses(problem: RectProblem,
                          rtol: float = RTOL) -> HypothesisReport:
    """Range and hermitian conditions for the rectangular pair (A, B),
    checked in the m x m ring of C."""
    return check_hypotheses(problem.ring(), problem.a, problem.b, rtol)


def solve_rect(problem: RectProblem, sign: str = MINUS,
               rtol: float = RTOL) -> SolutionFamily:
    """Solve A X B* - B X* A* = C (or the plus variant) in rectangular shapes.

    The square solver run in the m x m ring of C, with the same contract:
    HypothesesFailError when the pair (A, B) violates the range/hermitian
    conditions, UnsolvableError when C fails the sign's symmetry or the
    averaged projection identity, NotMpInvertibleError propagated from the
    MP-inverses.  The family's parameters V are n x p.
    """
    return solve(problem.ring(), sign, problem.a, problem.b, problem.c, rtol)


def solve_rect_via_embedding(problem: RectProblem, sign: str = MINUS,
                             rtol: float = RTOL):
    """Cross-check route: embed, solve in the square ring, keep the square family.

    Returns (square SolutionFamily, the embedded square RectProblem);
    extract_solution maps the family's members to rectangular solutions.
    Raises exactly as solve_rect does.
    """
    square = embed(problem)
    return solve_rect(square, sign, rtol), square
