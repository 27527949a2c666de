"""Batch command line front end.

Subcommands: mp, check, solve, gen, verify.  Instances and matrices travel
as the versioned JSON documents in formats.py; reports are JSON too, with a
short human summary on stdout whenever --output redirects the machine copy.

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
"""

import argparse
import math
import random
import sys
import time
from typing import Optional

from . import formats
from .formats import (FormatError, GenerationError, Instance, KINDS, PAIR_FAMILIES,
                      RECT_FAMILIES, RECT_KINDS, SQUARE_KINDS, SYM_KINDS)
from .matrix import (BACKENDS, CONJUGATE_TRANSPOSE, EXACT, FLOAT, INVOLUTIONS,
                     RTOL, MatrixRing, mp_inverse, penrose_defects)
from .ring import NotMpInvertibleError

# starsolve.solvers is imported inside the functions that run it, since `mp`
# does not; starsolve.generate inside cmd_gen and starsolve.certify inside
# _oracle_section only: no other subcommand runs them, and each CLI process
# would pay for loading them.  No subcommand runs starsolve.oracle.

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


def _resolve_tol(args) -> float:
    if not 0 < args.tol < math.inf:
        raise FormatError(f"tolerance must be finite and positive, got {args.tol}")
    return args.tol


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


def _ring_for(inst: Instance) -> MatrixRing:
    return MatrixRing(inst.size, inst.backend, inst.involution)


def _sym_side(kind: str) -> str:
    return "right" if kind == "sym_right" else "left"


def _instance_summary(inst: Instance) -> dict:
    return {
        "kind": inst.kind,
        "backend": inst.backend,
        "involution": inst.involution,
        "dims": list(inst.dims) if inst.dims is not None else None,
        "shapes": {name: list(m.shape) for name, m in sorted(inst.operands.items())},
    }


def _condition_entries(conditions) -> list:
    return [{"name": c.name,
             "ok": c.ok,
             "residual_max_abs": _max_abs(c.residual)}
            for c in conditions]


def _hypotheses_section(report) -> dict:
    rc, hc = report.range_condition, report.hermitian_condition
    return {
        "range_ok": rc.ok,
        "hermitian_ok": hc.ok,
        "range_defect_max_abs": _max_abs(rc.residual),
        "hermitian_defect_max_abs": _max_abs(hc.residual),
        "tolerance": None if rc.tol is None else max(_finite(rc.tol, "a tolerance"),
                                                     _finite(hc.tol, "a tolerance")),
    }


def _verdict_fields(report, conditions) -> dict:
    """The verdict part of a check or solve report; ``report`` is the
    hypothesis report (None for sym kinds), ``conditions`` those on c."""
    if report is not None and not report.ok:
        verdict, failed = "hypotheses_failed", list(report.failed_names())
    else:
        failed = [c.name for c in conditions if not c.ok]
        verdict = "unsolvable" if failed else "solvable"
    checked = tuple(conditions) + (report.conditions if report is not None else ())
    in_band = [_in_band(_max_abs(c.residual), _finite(c.tol, "a tolerance"))
               for c in checked]
    return {
        "hypotheses": _hypotheses_section(report) if report is not None else None,
        "verdict": verdict,
        "failed_conditions": failed,
        "conditions": _condition_entries(conditions),
        "indeterminate": any(in_band),
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
    ring = _ring_for(inst)
    a, b = inst.operand("a"), inst.operand("b")
    if inst.kind == "sym_right":
        return solve_sym_right(ring, a, b, rtol=rtol)
    if inst.kind == "sym_left":
        return solve_sym_left(ring, a, b, rtol=rtol)
    return solve(ring, inst.sign, a, b, inst.operand("c"), rtol=rtol)


def _verdict(inst: Instance, rtol: float):
    """(family or None, hypothesis report or None, conditions on c) from one
    solver call, the verdict path of both `check` and `solve`."""
    from .solvers import HypothesesFailError, UnsolvableError
    try:
        fam = _solve_instance(inst, rtol)
    except HypothesesFailError as exc:
        return None, exc.report, ()
    except UnsolvableError as exc:
        return None, exc.report, exc.conditions
    return fam, fam.report, fam.conditions


def _base_report(command: str, inst: Instance, tol_rtol: float) -> dict:
    return {
        "version": formats.FORMAT_VERSION,
        "command": command,
        "generated_at": _utc_now(),
        "instance": _instance_summary(inst),
        "tolerance": tol_rtol if inst.backend == FLOAT else None,
    }


# -- mp ------------------------------------------------------------------


def cmd_mp(args) -> int:
    rtol = _resolve_tol(args)
    m = formats.load_matrix(args.input)
    dagger = mp_inverse(m)
    names = ("axa_minus_a", "xax_minus_x", "ax_hermitian_defect", "xa_hermitian_defect")
    defects = penrose_defects(m, dagger)
    doc = {
        "version": formats.FORMAT_VERSION,
        "command": "mp",
        "generated_at": _utc_now(),
        "backend": m.backend,
        "involution": m.involution,
        "shape": list(m.shape),
        "mp_inverse": formats.encode_matrix(dagger),
        "penrose_residuals": {name: _max_abs(d)
                              for name, d in zip(names, defects)},
        "tolerance": rtol if m.backend == FLOAT else None,
    }
    worst = max(doc["penrose_residuals"].values())
    _emit(doc, args, [
        f"mp-inverse of {m.rows}x{m.cols} {m.backend} matrix ({m.involution})",
        f"penrose residual max |entry| = {worst:.3e}",
    ])
    return EXIT_OK


# -- check ---------------------------------------------------------------


def cmd_check(args) -> int:
    rtol = _resolve_tol(args)
    inst = formats.load_instance(args.input)
    doc = _base_report("check", inst, rtol)
    _, report, conditions = _verdict(inst, rtol)
    doc.update(_verdict_fields(report, conditions))
    verdict, failed = doc["verdict"], doc["failed_conditions"]
    lines = [f"{inst.kind} instance, {inst.backend} backend, {inst.involution}",
             f"verdict: {verdict}" + (f" ({', '.join(failed)})" if failed else "")]
    if doc["indeterminate"]:
        lines.append("indeterminate: residuals too close to the tolerance to call")
    _emit(doc, args, lines)
    return EXIT_OK


# -- solve ---------------------------------------------------------------


def _sample_section(fam, base_seed: int, count: int) -> list:
    samples = []
    for i in range(count):
        seed = base_seed + i
        x = fam.sample(seed)
        residual = fam.residual(x)
        residual_max = _max_abs(residual)  # exit 2 if eq(x) overflowed
        if not fam.residual_ok(x, residual):
            raise SelfCheckError(f"sample for seed {seed} failed re-verification")
        samples.append({
            "seed": seed,
            "solution": formats.encode_matrix(x),
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
    rtol = _resolve_tol(args)
    if args.samples < 0:
        raise FormatError(f"--samples must be non-negative, got {args.samples}")
    inst = formats.load_instance(args.input)
    if args.oracle and inst.backend != EXACT:
        raise FormatError("--oracle needs the exact backend")
    doc = _base_report("solve", inst, rtol)
    fam, report, conditions = _verdict(inst, rtol)
    doc.update(_verdict_fields(report, conditions))
    if fam is None:
        verdict, failed = doc["verdict"], doc["failed_conditions"]
        _emit(doc, args, [f"{inst.kind} instance: {verdict.replace('_', ' ')} "
                          f"({', '.join(failed)})"])
        return EXIT_HYPOTHESES_FAIL if verdict == "hypotheses_failed" else EXIT_UNSOLVABLE

    residual = fam.residual(fam.x0)
    residual_max = _max_abs(residual)
    if not fam.residual_ok(fam.x0, residual):
        raise SelfCheckError("particular solution failed re-verification")
    # the certificate runs before the samples: where L is broken, its exact
    # witness names the faulty coefficient, and a sample would only fail
    oracle = _oracle_section(fam) if args.oracle else None
    doc.update({
        "x0": formats.encode_matrix(fam.x0),
        "residual_max_abs": residual_max,
        "samples": _sample_section(fam, args.seed, args.samples),
    })
    lines = [f"{inst.kind} instance, {inst.backend} backend, {inst.involution}",
             "verdict: solvable",
             f"x0 residual max |entry| = {doc['residual_max_abs']:.3e}",
             f"{args.samples} sample solutions verified"]
    if oracle is not None:
        doc["oracle"] = oracle
        lines.append(f"oracle agreement: ok "
                     f"(real dimension {doc['oracle']['real_dimension']})")
    _emit(doc, args, lines)
    return EXIT_OK


# -- gen -----------------------------------------------------------------


def _parse_dims(kind: str, raw: Optional[str]):
    """--dims: "m,n,p" as a tuple for rect kinds, else "n" as an int (default 2)."""
    rect = kind in RECT_KINDS
    count = 3 if rect else 1
    parts = ["2"] * count if raw is None else raw.split(",")
    if len(parts) != count:
        raise FormatError(f"--dims must be {'m,n,p' if rect else 'n'} for {kind!r}, "
                          f"got {raw!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(f"--dims must be integers, got {raw!r}")
    if any(d < 1 for d in dims):
        raise FormatError(f"--dims must be positive, got {raw!r}")
    return dims if rect else dims[0]


def cmd_gen(args) -> int:
    from .generate import random_rect_instance, random_sym_instance, random_square_instance
    kind = args.kind
    dims = _parse_dims(kind, args.dims)
    rng = random.Random(args.seed)
    sign = formats.sign_of(kind)

    if kind in SQUARE_KINDS:
        family = args.family or "unitary"
        if family not in PAIR_FAMILIES:
            raise FormatError(f"--family must be one of {PAIR_FAMILIES} for {kind!r}")
        a, b, c = random_square_instance(rng, sign, dims, family,
                                         args.force_solvable, args.involution)
        operands, inst_dims = {"a": a, "b": b, "c": c}, None
    elif kind in SYM_KINDS:
        if args.family is not None:
            raise FormatError("--family does not apply to sym kinds")
        a, b = random_sym_instance(rng, _sym_side(kind), dims, args.force_solvable,
                                   args.involution)
        operands, inst_dims = {"a": a, "b": b}, None
    else:
        family = args.family or "coisometry"
        if family not in RECT_FAMILIES:
            raise FormatError(f"--family must be one of {RECT_FAMILIES} for {kind!r}")
        problem = random_rect_instance(rng, dims, family, args.force_solvable,
                                       args.involution, sign)
        operands, inst_dims = {"a": problem.a, "b": problem.b, "c": problem.c}, dims

    if args.backend == FLOAT:
        operands = {name: m.to_float() for name, m in operands.items()}
    inst = formats.make_instance(kind, args.backend, args.involution, operands,
                                 inst_dims, args.seed)
    doc = formats.instance_to_doc(inst)
    if args.output:
        formats.write_doc(doc, args.output)
        shape = f"dims {dims}" if kind in RECT_KINDS else f"size {dims}"
        print(f"wrote {kind} instance ({args.backend}, {args.involution}, "
              f"{shape}, seed {args.seed}) to {args.output}")
    else:
        sys.stdout.write(formats.dumps_doc(doc))
    return EXIT_OK


# -- verify ---------------------------------------------------------------


def cmd_verify(args) -> int:
    from .solvers import equation_lhs, residual_tolerance, sym_general_form
    rtol = _resolve_tol(args)
    inst = formats.load_instance(args.input)
    x = formats.load_matrix(args.solution)
    if x.backend != inst.backend or x.involution != inst.involution:
        raise FormatError("solution tags do not match the instance")
    # the equation in general form, A x B* -/+ B x* A* = C, with x: A.cols x B.cols
    a, b = inst.operand("a"), inst.operand("b")
    a, b, rhs = (sym_general_form(_sym_side(inst.kind), a, b) if inst.kind in SYM_KINDS
                 else (a, b, inst.operand("c")))
    if x.shape != (a.cols, b.cols):
        raise FormatError(f"solution must have shape {(a.cols, b.cols)}, got {x.shape}")

    residual = equation_lhs(inst.sign, a, b, x).sub(rhs)
    residual_max = _max_abs(residual)
    tol_abs = _finite(residual_tolerance(rtol, a, b, rhs, x), "the tolerance")
    verified = residual.is_zero(tol_abs)

    doc = {
        "version": formats.FORMAT_VERSION,
        "command": "verify",
        "generated_at": _utc_now(),
        "instance": _instance_summary(inst),
        "solution_shape": list(x.shape),
        "tolerance": tol_abs,
        "residual_max_abs": residual_max,
        "verified": verified,
    }
    _emit(doc, args, [
        f"residual max |entry| = {residual_max:.3e}",
        "verdict: verified" if verified else "verdict: FAILED",
    ])
    return EXIT_OK if verified else EXIT_VERIFY_FAIL


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsolve",
        description="Solve a x b* -/+ b x* a* = c and its symmetric special "
                    "cases over exact or float matrix rings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON report here "
                       "(summary goes to stdout); default prints JSON")
        p.add_argument("--tol", type=float, default=RTOL,
                       help=f"relative float tolerance: each float zero test "
                            f"allows this times the scale of its residual's "
                            f"terms (default {RTOL})")

    p_mp = sub.add_parser("mp", help="Moore-Penrose inverse of one matrix")
    p_mp.add_argument("--input", required=True, help="matrix file (JSON)")
    common(p_mp)
    p_mp.set_defaults(func=cmd_mp)

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


if __name__ == "__main__":
    sys.exit(main())
