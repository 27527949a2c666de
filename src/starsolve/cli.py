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

This module holds the parser, :func:`main` and one lazy dispatch per
subcommand; each body lives where only its subcommand loads it, since a
CLI process would pay for loading the others and, without .pyc files, for
compiling them too: `mp` and `verify` in starsolve.commands, `check` and
`solve` in starsolve.verdicts, `gen` in starsolve.generate.  What their
reports share, and the exit codes, live in starsolve.formats: no body
imports this module, which runs as ``__main__`` under ``python -m``.  No
subcommand runs starsolve.oracle.

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

from .formats import (EXIT_NOT_MP_INVERTIBLE, EXIT_OK, EXIT_PARAM, EXIT_SELF_CHECK, KINDS,
                      PAIR_FAMILIES, RECT_FAMILIES, FormatError, GenerationError,
                      SelfCheckError)
from .ring import NotMpInvertibleError
from .tags import BACKENDS, CONJUGATE_TRANSPOSE, EXACT, INVOLUTIONS, RTOL

DEFAULT_SAMPLES = 3


def cmd_mp(args) -> int:
    from . import commands  # each subcommand compiles only the code it runs
    return commands.cmd_mp(args)


def cmd_verify(args) -> int:
    from . import commands
    return commands.cmd_verify(args)


def cmd_check(args) -> int:
    from . import verdicts
    return verdicts.cmd_check(args)


def cmd_solve(args) -> int:
    from . import verdicts
    return verdicts.cmd_solve(args)


def cmd_gen(args) -> int:
    from . import generate
    generate.cmd_gen(args)
    return EXIT_OK


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
