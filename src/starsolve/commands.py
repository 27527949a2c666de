"""The `mp` and `verify` subcommands of the CLI.

Neither runs the verdict path of `check` and `solve` (in
:mod:`starsolve.verdicts`): `mp` reports an MP-inverse with its Penrose
residuals, `verify` substitutes a claimed solution into an instance's
equation.  Their reports share the envelope and the checks of
:mod:`starsolve.formats`.  The CLI imports this module only for these two
subcommands.
"""

from . import formats, matrix
from .formats import (EXIT_OK, EXIT_VERIFY_FAIL, SYM_KINDS, FormatError, _emit, _finite,
                      _instance_summary, _max_abs, _report)


# -- mp ------------------------------------------------------------------


def cmd_mp(args) -> int:
    from .penrose import penrose_defects  # only `mp` reports the Penrose residuals
    m = formats.load_matrix(args.input)
    dagger = matrix.mp_inverse(m)
    names = ("axa_minus_a", "xax_minus_x", "ax_hermitian_defect", "xa_hermitian_defect")
    residuals = {name: _max_abs(d) for name, d in zip(names, penrose_defects(m, dagger))}
    doc = _report("mp", backend=m.backend, involution=m.involution, shape=list(m.shape),
                  mp_inverse=dagger, penrose_residuals=residuals, tolerance=None)
    _emit(doc, args, [
        f"mp-inverse of {m.rows}x{m.cols} {m.backend} matrix ({m.involution})",
        f"penrose residual max |entry| = {max(residuals.values()):.3e}",
    ])
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    from .solvers import equation_lhs, residual_condition, sym_general_form  # `mp` runs none
    inst = formats.load_instance(args.input)
    x = formats.load_matrix(args.solution)
    if x.backend != inst.backend or x.involution != inst.involution:
        raise FormatError("solution tags do not match the instance")
    # the equation in general form, A x B* -/+ B x* A* = C, with x: A.cols x B.cols
    a, b = inst.operands["a"], inst.operands["b"]
    a, b, rhs = (sym_general_form(inst.kind.removeprefix("sym_"), a, b)
                 if inst.kind in SYM_KINDS
                 else (a, b, inst.operands["c"]))
    if x.shape != (a.cols, b.cols):
        raise FormatError(f"solution must have shape {(a.cols, b.cols)}, got {x.shape}")

    judged = residual_condition(equation_lhs(inst.sign, a, b, x).sub(rhs), args.tol, a, b, rhs, x)
    residual_max = _max_abs(judged.residual)
    doc = _report("verify", instance=_instance_summary(inst), solution_shape=list(x.shape),
                  tolerance=_finite(judged.tol, "the tolerance"),
                  residual_max_abs=residual_max, verified=judged.ok)
    _emit(doc, args, [
        f"residual max |entry| = {residual_max:.3e}",
        "verdict: verified" if judged.ok else "verdict: FAILED",
    ])
    return EXIT_OK if judged.ok else EXIT_VERIFY_FAIL
