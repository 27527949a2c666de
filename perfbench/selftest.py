#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs short closed-loop passes in which the library is made to give wrong
answers, or the expected verdict is flipped, and checks that every instance
of such a pass is counted as failed, while the same pass on the untouched
library counts none.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

PASS_SECONDS = 0.05


def with_attr(lib, module, name, value):
    """A copy of ``lib`` whose ``module`` has ``name`` replaced."""
    patched = types.SimpleNamespace(**vars(getattr(lib, module)))
    setattr(patched, name, value)
    return types.SimpleNamespace(**{**vars(lib), module: patched})


def wrong_x0(lib):
    """Library whose solve() returns a family with x0 moved off the solution set."""
    real = lib.solvers.solve

    def solve(ring, *args, **kwargs):
        fam = real(ring, *args, **kwargs)
        unit = ring.zero().paste(0, 0, ring.one().block(0, 0, 1, 1))
        fam.x0 = fam.x0.add(unit)
        return fam

    return with_attr(lib, "solvers", "solve", solve)


def flipped_oracle(lib):
    """Library whose oracle_solve() reports the opposite verdict."""
    real = lib.oracle.oracle_solve

    def oracle_solve(*args):
        result = real(*args)
        return dataclasses.replace(result, solvable=not result.solvable)

    return with_attr(lib, "oracle", "oracle_solve", oracle_solve)


def failed_share(name, lib, pool, step):
    p = bench.Run(name, 0, lib, pool, step).loop(PASS_SECONDS)
    return p.failed, p.attempted


def main():
    bench.guard_source()
    lib = bench.import_lib(with_cli=True)
    rng = random.Random(7)
    exact = wl._make_case("minus/unitary/n3", "minus",
                          wl._square(lib, rng, "minus", 3, "unitary", True),
                          expected=wl.SOLVABLE)
    floating = wl._make_case("minus/unitary/n3/float", "minus",
                             {k: m.to_float() for k, m in exact.ops.items()},
                             expected=wl.SOLVABLE)
    flipped = dataclasses.replace(exact, expected=wl.UNSOLVABLE)

    # (what, workload, lib, case, step, every instance should fail)
    checks = [
        ("exact gate, untouched library", "exact_closed_form", lib, exact,
         wl.run_exact_closed_form, False),
        ("exact gate, wrong x0", "exact_closed_form", wrong_x0(lib), exact,
         wl.run_exact_closed_form, True),
        ("exact gate, flipped expected verdict", "exact_closed_form", lib, flipped,
         wl.run_exact_closed_form, True),
        ("float gate, untouched library", "float_unscaled", lib, floating, wl.run_float, False),
        ("float gate, wrong x0", "float_unscaled", wrong_x0(lib), floating, wl.run_float, True),
        ("oracle gate, untouched library", "exact_oracle", lib, exact,
         wl.run_exact_oracle, False),
        ("oracle gate, oracle disagrees", "exact_oracle", flipped_oracle(lib), exact,
         wl.run_exact_oracle, True),
        ("oracle gate, flipped expected verdict", "exact_oracle", lib, flipped,
         wl.run_exact_oracle, True),
    ]
    ok = True
    for what, name, use_lib, case, step, should_fail in checks:
        failed, attempted = failed_share(name, use_lib, [case], step)
        good = failed == (attempted if should_fail else 0)
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {what}: {failed} of {attempted} instances failed")

    workdir = bench.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # Exact: gen and check; float: check and solve.  Both instances are
        # solvable by construction.
        for backend in ("exact", "float"):
            (workdir / backend).mkdir(exist_ok=True)
            cli = wl.CliWorkload(lib, 0, str(workdir / backend), str(bench.ROOT),
                                 str(bench.SRC), backend)
            first, second = cli.calls[0], cli.calls[1]
            fails = cli.run_in_process(first) + cli.run_in_process(second)
            good = not fails
            print(f"{'ok  ' if good else 'FAIL'} {backend} cli gate, untouched: {fails}")
            check = next(c for c in cli.calls if c.subcommand == "check")
            check.case.expected = wl.UNSOLVABLE
            fails = cli.run_in_process(check)
            good_flip = bool(fails)
            print(f"{'ok  ' if good_flip else 'FAIL'} {backend} cli gate, flipped expected "
                  f"verdict: {fails}")
            ok &= good and good_flip
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
