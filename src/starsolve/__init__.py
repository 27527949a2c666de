"""Solvers for a x b* -/+ b x* a* = c in rings with involution.

The solution theory runs over any ring with involution in which 2 is
invertible; this package realizes it with matrices over the Gaussian
rationals (exact) and over complex floats (approximate).
Rectangular instances A X B* -/+ B X* A* = C run through the same formulas
in the ring of C, cross-checked by a block embedding into a square ring.
An exact real-linearization oracle cross-checks both solvability verdicts
and the completeness of the solution families.
"""

from .matrix import (BACKENDS, CONJUGATE_TRANSPOSE, EXACT, FLOAT, INVOLUTIONS,
                     TRANSPOSE, Matrix, MatrixRing, mp_inverse, random_matrix)
from .oracle import (GenerationError, OracleAgreement, OracleResult,
                     linearize, oracle_solve, random_rect_instance,
                     random_sym_instance, random_square_instance,
                     verify_family_against_oracle)
from .rect import (RectProblem, check_rect_hypotheses, embed, embed_mp,
                   embed_solution, extract_solution, solve_rect,
                   solve_rect_via_embedding)
from .ring import NotMpInvertibleError
from .scalars import GaussianRational
from .solvers import (Condition, HypothesesFailError, HypothesisReport,
                      MINUS, PLUS, SolutionFamily, UnsolvableError,
                      check_hypotheses, equation_lhs, particular,
                      solvability_conditions, solve, solve_sym_left,
                      solve_sym_right, sym_solvability_conditions)

__version__ = "0.1.0"

__all__ = [
    "BACKENDS", "CONJUGATE_TRANSPOSE", "EXACT", "FLOAT", "INVOLUTIONS",
    "TRANSPOSE", "Matrix", "MatrixRing", "mp_inverse", "random_matrix",
    "GenerationError", "OracleAgreement", "OracleResult", "linearize",
    "oracle_solve", "random_rect_instance", "random_sym_instance",
    "random_square_instance", "verify_family_against_oracle",
    "RectProblem", "check_rect_hypotheses", "embed", "embed_mp",
    "embed_solution", "extract_solution", "solve_rect",
    "solve_rect_via_embedding",
    "NotMpInvertibleError",
    "GaussianRational",
    "Condition", "HypothesesFailError", "HypothesisReport", "MINUS", "PLUS",
    "SolutionFamily", "UnsolvableError", "check_hypotheses", "equation_lhs",
    "particular", "solvability_conditions", "solve", "solve_sym_left",
    "solve_sym_right", "sym_solvability_conditions",
    "__version__",
]
