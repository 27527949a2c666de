"""The `check` and `solve` subcommands: a verdict from one solver call.

`check` and `solve` take their verdict from one solver call and read each
residual once; `solve` re-verifies every solution before it prints it, and
with --oracle certifies the family exactly.  A report carries its matrices
(x0, each sample's solution) as ``Matrix`` values, which formats encodes
one at a time as it writes them.  The CLI imports this module only for
these two subcommands.
"""

from typing import Optional

from . import formats
from .formats import (EXIT_HYPOTHESES_FAIL, EXIT_OK, EXIT_UNSOLVABLE, FormatError, Instance,
                      SelfCheckError, _emit, _finite, _instance_summary, _max_abs, _report)
from .ring import MatrixRing
from .tags import EXACT, FLOAT

# starsolve.solvers is imported inside the functions that run it, so a
# traced run calls whatever its wrappers have put there; starsolve.certify
# inside _oracle_section only: only `solve --oracle` runs it.

# float residuals within [tol/BAND, tol*BAND] are too close to call
INDETERMINATE_BAND = 1e3


def _in_band(residual_max: float, tol: Optional[float]) -> bool:
    if not tol:  # exact, or terms that are all zero: nothing to call
        return False
    return tol / INDETERMINATE_BAND <= residual_max <= tol * INDETERMINATE_BAND


def _verdict_fields(report, conditions) -> dict:
    """The verdict part of a check or solve report; ``report`` is the
    hypothesis report (None for sym kinds), ``conditions`` those on c.
    Each residual's largest |entry| and each tolerance is read once, in
    order: the conditions on c, then the range and hermitian conditions; the
    first that is not a finite float is the one an exit 2 names."""
    if report is not None and not report.ok:
        verdict, failed = "hypotheses_failed", list(report.failed_names())
    else:
        failed = [c.name for c in conditions if not c.ok]
        verdict = "unsolvable" if failed else "solvable"
    checked = tuple(conditions) + (report.conditions if report is not None else ())
    measured = [(c, _max_abs(c.residual), _finite(c.tol, "a tolerance")) for c in checked]
    hypotheses = None
    if report is not None:
        (rc, range_max, range_tol), (hc, hermitian_max, hermitian_tol) = measured[-2:]
        hypotheses = {
            "range_ok": rc.ok,
            "hermitian_ok": hc.ok,
            "range_defect_max_abs": range_max,
            "hermitian_defect_max_abs": hermitian_max,
            "tolerance": None if range_tol is None else max(range_tol, hermitian_tol),
        }
    return {
        "hypotheses": hypotheses,
        "verdict": verdict,
        "failed_conditions": failed,
        "conditions": [{"name": c.name, "ok": c.ok, "residual_max_abs": residual_max}
                       for c, residual_max, _ in measured[:len(conditions)]],
        "indeterminate": any(_in_band(residual_max, tol) for _, residual_max, tol in measured),
    }


def _solve_instance(inst: Instance, rtol: float):
    from .solvers import solve, solve_sym_left, solve_sym_right
    ring = MatrixRing(inst.operands["a"].rows, inst.backend, inst.involution)
    a, b = inst.operands["a"], inst.operands["b"]
    if inst.kind == "sym_right":
        return solve_sym_right(ring, a, b, rtol=rtol)
    if inst.kind == "sym_left":
        return solve_sym_left(ring, a, b, rtol=rtol)
    return solve(ring, inst.sign, a, b, inst.operands["c"], rtol=rtol)


def _verdict_report(command: str, inst: Instance, rtol: float):
    """(family or None, report with the verdict) from one solver call, the
    verdict path of both `check` and `solve`."""
    from .solvers import HypothesesFailError, UnsolvableError
    try:
        fam = _solve_instance(inst, rtol)
    except HypothesesFailError as exc:
        fam, report, conditions = None, exc.report, ()
    except UnsolvableError as exc:
        fam, report, conditions = None, exc.report, exc.conditions
    else:
        report, conditions = fam.report, fam.conditions
    return fam, _report(command, instance=_instance_summary(inst),
                        tolerance=rtol if inst.backend == FLOAT else None,
                        **_verdict_fields(report, conditions))


# -- check ---------------------------------------------------------------


def cmd_check(args) -> int:
    inst = formats.load_instance(args.input)
    _, doc = _verdict_report("check", inst, args.tol)
    verdict, failed = doc["verdict"], doc["failed_conditions"]
    lines = [f"{inst.kind} instance, {inst.backend} backend, {inst.involution}",
             f"verdict: {verdict}" + (f" ({', '.join(failed)})" if failed else "")]
    if doc["indeterminate"]:
        lines.append("indeterminate: residuals too close to the tolerance to call")
    _emit(doc, args, lines)
    return EXIT_OK


# -- solve ---------------------------------------------------------------


def _reverified_max_abs(fam, x, subject: str) -> float:
    """The largest |entry| of x's residual, once the family has confirmed
    that x solves its equation; SelfCheckError names ``subject`` if not."""
    judged = fam.judge(x)
    residual_max = _max_abs(judged.residual)  # exit 2 if eq(x) overflowed
    if not judged.ok:
        raise SelfCheckError(f"{subject} failed re-verification")
    return residual_max


def _sample_section(fam, base_seed: int, count: int) -> list:
    samples = []
    for seed in range(base_seed, base_seed + count):
        x = fam.sample(seed)
        residual_max = _reverified_max_abs(fam, x, f"sample for seed {seed}")
        samples.append({
            "seed": seed,
            "solution": x,
            "residual_max_abs": residual_max,
            "verified": True,
        })
    return samples


def _oracle_section(fam) -> dict:
    from .certify import certify_family
    certificate = certify_family(fam)
    if not certificate.ok:
        raise SelfCheckError("oracle certificate failed on a solved instance: "
                             + "; ".join(certificate.witnesses))
    return {
        "solvable": certificate.x0_ok,
        "real_dimension": certificate.real_dimension,
        "agreement": certificate.as_dict(),
    }


def cmd_solve(args) -> int:
    if args.samples < 0:
        raise FormatError(f"--samples must be non-negative, got {args.samples}")
    inst = formats.load_instance(args.input)
    if args.oracle and inst.backend != EXACT:
        raise FormatError("--oracle needs the exact backend")
    fam, doc = _verdict_report("solve", inst, args.tol)
    if fam is None:
        verdict, failed = doc["verdict"], doc["failed_conditions"]
        _emit(doc, args, [f"{inst.kind} instance: {verdict.replace('_', ' ')} "
                          f"({', '.join(failed)})"])
        return EXIT_HYPOTHESES_FAIL if verdict == "hypotheses_failed" else EXIT_UNSOLVABLE

    residual_max = _reverified_max_abs(fam, fam.x0, "particular solution")
    # the certificate runs before the samples: where L is broken, its exact
    # witness names the faulty coefficient, and a sample would only fail
    oracle = _oracle_section(fam) if args.oracle else None
    doc.update({
        "x0": fam.x0,
        "residual_max_abs": residual_max,
        "samples": _sample_section(fam, args.seed, args.samples),
    })
    lines = [f"{inst.kind} instance, {inst.backend} backend, {inst.involution}",
             "verdict: solvable",
             f"x0 residual max |entry| = {residual_max:.3e}",
             f"{args.samples} sample solutions verified"]
    if oracle is not None:
        doc["oracle"] = oracle
        lines.append(f"oracle agreement: ok (real dimension {oracle['real_dimension']})")
    _emit(doc, args, lines)
    return EXIT_OK
