"""Solvers for a x b* -/+ b x* a* = c in rings with involution.

The solution theory runs over any ring with involution in which 2 is
invertible; this package realizes it with matrices over the Gaussian
rationals (exact) and over complex floats (approximate).
Rectangular instances A X B* -/+ B X* A* = C run through the same formulas
in the ring of C, cross-checked by a block embedding into a square ring.
An exact certificate proves each solved family complete and reads off the
real dimension of its solution set with no elimination; an exact
real-linearization oracle is the ground truth that the verdicts and the
certificate are tested against.

Importing the package loads no submodule: each name below is imported from
its defining module on first use (PEP 562), so a CLI process loads only the
modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# defining module of each public name
_SURFACE = {
    "certify": ("OracleAgreement", "certify_family"),
    "draws": ("random_matrix",),
    "formats": ("GenerationError",),
    "generate": ("random_rect_instance", "random_sym_instance", "random_square_instance"),
    "matrix": ("Matrix", "mp_inverse"),
    "oracle": ("OracleResult", "linearize", "oracle_solve", "verify_family_against_oracle"),
    "rect": ("RectProblem", "check_rect_hypotheses", "embed", "embed_mp",
             "embed_solution", "extract_solution", "solve_rect",
             "solve_rect_via_embedding"),
    "ring": ("MatrixRing", "NotMpInvertibleError"),
    "scalars": ("GaussianRational",),
    "solvers": ("Condition", "HypothesesFailError", "HypothesisReport", "MINUS", "PLUS",
                "SolutionFamily", "UnsolvableError", "check_hypotheses", "equation_lhs",
                "particular", "solvability_conditions", "solve", "solve_sym_left",
                "solve_sym_right"),
    "tags": ("BACKENDS", "CONJUGATE_TRANSPOSE", "EXACT", "FLOAT", "INVOLUTIONS", "TRANSPOSE"),
}
_MODULE_OF = {name: module for module, names in _SURFACE.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
