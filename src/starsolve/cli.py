"""Batch command line front end.

Subcommands: mp, check, solve, gen, verify.  Instances and matrices travel
as the versioned JSON documents in formats.py; reports are JSON too, with a
short human summary on stdout whenever --output redirects the machine copy.
Every report opens with the same envelope: version, command, generated_at.
A report carries its matrices (x0, each sample's solution, mp_inverse) as
``Matrix`` values, which formats encodes one at a time as it writes them.
--tol is checked once, in :func:`main`, before a subcommand reads a file.
`check` and `solve` take their verdict from one solver call and read each
residual once; a solution is re-verified before it is printed.

Exit codes are a stable contract:

    0  success (for `check`, any verdict; the verdict is in the report)
    2  parse or parameter error, or a reported residual whose largest
       |entry| does not fit a float (an exact entry beyond about 1.8e308)
    3  an MP-inverse the run needs lies beyond the float range
    4  the instance is unsolvable (report still written)
    5  the standing hypotheses fail (report still written)
    6  `verify` rejected the claimed solution
    7  internal self-check failed (a solution the solver returned did not
       verify, or --oracle's exact certificate failed on it)

A process enters through :func:`run` (the console script and ``python -m
starsolve.cli``), which freezes the collector once :func:`main` returns, so
interpreter shutdown does not walk every object the run left alive.
:func:`main` is the in-process entry and has no process-wide effect.
"""

import argparse
import gc
import math
import sys
import time
from typing import Optional

from . import formats
from .formats import (FormatError, GenerationError, Instance, KINDS, PAIR_FAMILIES,
                      RECT_FAMILIES, SYM_KINDS)
from .matrix import (BACKENDS, CONJUGATE_TRANSPOSE, EXACT, FLOAT, INVOLUTIONS,
                     RTOL, mp_inverse, penrose_defects)
from .ring import MatrixRing, NotMpInvertibleError

# starsolve.solvers is imported inside the functions that run it, since `mp`
# does not; starsolve.generate inside cmd_gen and starsolve.certify inside
# _oracle_section only: no other subcommand runs them, and each CLI process
# would pay for loading them, without .pyc files for compiling them too.
# So the body of `gen` lives in starsolve.generate, and this module keeps
# only its parser and a lazy dispatch.  No subcommand runs starsolve.oracle.

# float residuals within [tol/BAND, tol*BAND] are too close to call
INDETERMINATE_BAND = 1e3

EXIT_OK = 0
EXIT_PARAM = 2
EXIT_NOT_MP_INVERTIBLE = 3
EXIT_UNSOLVABLE = 4
EXIT_HYPOTHESES_FAIL = 5
EXIT_VERIFY_FAIL = 6
EXIT_SELF_CHECK = 7

DEFAULT_SAMPLES = 3


class SelfCheckError(Exception):
    """A solution the CLI was about to print failed its own re-verification."""


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _report(command: str, **fields) -> dict:
    """A report: the envelope every subcommand's report shares, then ``fields``."""
    return {"version": formats.FORMAT_VERSION, "command": command,
            "generated_at": _utc_now(), **fields}


def _in_band(residual_max: float, tol: Optional[float]) -> bool:
    if not tol:  # exact, or terms that are all zero: nothing to call
        return False
    return tol / INDETERMINATE_BAND <= residual_max <= tol * INDETERMINATE_BAND


def _finite(value: Optional[float], what: str) -> Optional[float]:
    """A residual or tolerance (None on the exact backend) for a report
    field, which is a JSON float; FormatError when it is not finite (an
    overflow, or a NaN from inf * 0), since a verdict judged by it means
    nothing."""
    if value is not None and not math.isfinite(value):
        raise FormatError(f"{what} is {value}, not a finite float, and cannot be reported")
    return value


def _max_abs(m) -> float:
    """``m.max_abs()`` through :func:`_finite`."""
    try:
        value = m.max_abs()
    except OverflowError:  # an exact part beyond the float range
        value = math.inf
    return _finite(value, "a residual's largest |entry|")


def _instance_summary(inst: Instance) -> dict:
    return {
        "kind": inst.kind,
        "backend": inst.backend,
        "involution": inst.involution,
        "dims": list(inst.dims) if inst.dims is not None else None,
        "shapes": {name: list(m.shape) for name, m in sorted(inst.operands.items())},
    }


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


def _emit(doc: dict, args, summary_lines) -> None:
    if args.output:
        formats.write_doc(doc, args.output)
        for line in summary_lines:
            print(line)
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(formats.dumps_doc(doc))


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


# -- mp ------------------------------------------------------------------


def cmd_mp(args) -> int:
    m = formats.load_matrix(args.input)
    dagger = mp_inverse(m)
    names = ("axa_minus_a", "xax_minus_x", "ax_hermitian_defect", "xa_hermitian_defect")
    residuals = {name: _max_abs(d) for name, d in zip(names, penrose_defects(m, dagger))}
    doc = _report("mp", backend=m.backend, involution=m.involution, shape=list(m.shape),
                  mp_inverse=dagger, penrose_residuals=residuals, tolerance=None)
    _emit(doc, args, [
        f"mp-inverse of {m.rows}x{m.cols} {m.backend} matrix ({m.involution})",
        f"penrose residual max |entry| = {max(residuals.values()):.3e}",
    ])
    return EXIT_OK


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


# -- gen -----------------------------------------------------------------


def cmd_gen(args) -> int:
    from . import generate  # only `gen` compiles the generators and the rest of its code
    generate.cmd_gen(args)
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    from .solvers import equation_lhs, residual_condition, sym_general_form
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


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsolve",
        description="Solve a x b* -/+ b x* a* = c and its symmetric special "
                    "cases over exact or float matrix rings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def output(p):
        p.add_argument("--output", help="write the JSON report here "
                       "(summary goes to stdout); default prints JSON")

    def common(p):
        output(p)
        p.add_argument("--tol", type=float, default=RTOL,
                       help=f"relative float tolerance: each float zero test "
                            f"allows this times the scale of its residual's "
                            f"terms (default {RTOL})")

    p_mp = sub.add_parser("mp", help="Moore-Penrose inverse of one matrix")
    p_mp.add_argument("--input", required=True, help="matrix file (JSON)")
    output(p_mp)  # no decision of mp_inverse reads a tolerance
    p_mp.set_defaults(func=cmd_mp, tol=None)

    p_check = sub.add_parser("check", help="hypotheses and solvability verdict, "
                                           "without printing a solution")
    p_check.add_argument("--input", required=True, help="instance file (JSON)")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="particular solution plus seeded "
                                           "samples from the general family")
    p_solve.add_argument("--input", required=True, help="instance file (JSON)")
    p_solve.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                         help=f"family samples to draw (default {DEFAULT_SAMPLES})")
    p_solve.add_argument("--seed", type=int, default=0,
                         help="base seed for the samples (default 0)")
    p_solve.add_argument("--oracle", action="store_true",
                         help="certify the family exactly, with no elimination, and report "
                              "the real dimension of the solution set")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance whose "
                                       "operands satisfy the hypotheses")
    p_gen.add_argument("--kind", required=True, choices=KINDS)
    p_gen.add_argument("--family", default=None,
                       help="generator family (square: %s; rect: %s)"
                            % (", ".join(PAIR_FAMILIES), ", ".join(RECT_FAMILIES)))
    p_gen.add_argument("--dims", default=None,
                       help="size n, or m,n,p for rect kinds (default 2)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--force-solvable", action="store_true",
                       help="build c from a random solution so the instance "
                            "is solvable by construction")
    p_gen.add_argument("--backend", default=EXACT, choices=BACKENDS)
    p_gen.add_argument("--involution", default=CONJUGATE_TRANSPOSE,
                       choices=INVOLUTIONS)
    p_gen.add_argument("--output", help="write the instance here (default stdout)")
    p_gen.set_defaults(func=cmd_gen, tol=None)

    p_verify = sub.add_parser("verify", help="substitute a claimed solution "
                                             "into an instance's equation")
    p_verify.add_argument("--input", required=True, help="instance file (JSON)")
    p_verify.add_argument("--solution", required=True, help="matrix file (JSON)")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is not None and not 0 < args.tol < math.inf:  # gen and mp have no --tol
            raise FormatError(f"tolerance must be finite and positive, got {args.tol}")
        return args.func(args)
    except (FormatError, GenerationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except NotMpInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_MP_INVERTIBLE
    except SelfCheckError as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK


def run() -> int:
    """:func:`main` on ``sys.argv``, then ``gc.freeze()``: the collections
    of interpreter shutdown skip every object still alive, which the ending
    process frees anyway.  The collector stays enabled."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
