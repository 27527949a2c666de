"""The benchmark's workloads: seeded instance pools, per-instance steps, and
the correctness gate.

Each workload is a closed loop with one client.  A step function
(``run_exact_closed_form``, ``run_exact_oracle``, ``run_float``, or a
``CliCall``'s check) processes one instance, every step and then its checks,
and returns the list of gate failures, empty when the instance is correct.  Instances come from the package's own
generators, seeded from the benchmark seed; the library only ever sees the
generated operands.  Library functions are reached through module attributes
(``lib.solvers.solve``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

SAMPLES = 2               # family samples drawn and checked per solvable instance
FLOAT_RESIDUAL_RTOL = 1e-9  # float gate: |residual| <= rtol * (n |a| |x| |b| + |c|)
CLI_TIMEOUT_S = 120
ORACLE_COPIES = 6         # distinct instances per exact_oracle spec
CLOSED_FORM_COPIES = 2    # distinct instances per exact_closed_form spec

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
HYP_FAILED = "hypotheses_failed"
EXIT_FOR_VERDICT = {SOLVABLE: 0, UNSOLVABLE: 4, HYP_FAILED: 5}


@dataclass
class Case:
    """One generated instance and what the gate expects of it."""

    label: str                  # e.g. "minus/unitary/n8"
    size_class: str             # e.g. "exact.n8", "float.n32", "exact.rect2x3x3"
    kind: str                   # minus, plus, sym_right, sym_left, rect_minus, rect_plus
    ops: dict                   # operand name -> Matrix
    dims: Optional[tuple] = None
    expected: Optional[str] = None   # verdict; None = decided by the oracle
    route: str = "direct"       # rect only: "direct" or "embedding"


def _sign(kind):
    return "plus" if kind in ("plus", "sym_right", "sym_left", "rect_plus") else "minus"


def _size_class(backend, ops, dims):
    if dims is not None:
        return f"{backend}.rect{dims[0]}x{dims[1]}x{dims[2]}"
    return f"{backend}.n{ops['a'].rows}"


def _make_case(label, kind, ops, dims=None, expected=None, route="direct"):
    backend = ops["a"].backend
    return Case(label, _size_class(backend, ops, dims), kind, ops, dims, expected, route)


# -- generation ---------------------------------------------------------------


def _square(lib, rng, kind, n, family, solvable):
    a, b, c = lib.oracle.random_square_instance(rng, kind, n, family, solvable)
    return {"a": a, "b": b, "c": c}


def _sym(lib, rng, kind, n, solvable):
    a, b = lib.oracle.random_sym_instance(rng, kind[4:], n, solvable)
    return {"a": a, "b": b}


def _rect(lib, rng, kind, dims, family, solvable):
    p = lib.oracle.random_rect_instance(rng, dims, family, solvable, sign=kind[5:])
    return {"a": p.a, "b": p.b, "c": p.c}


def _hyp_failing_pair(lib, rng, kind, n):
    """Dense a with one zero row and dense b: the range condition a a' b = b
    fails by construction, because row ``kill`` of a a' b is zero."""
    m = lib.matrix
    kill = rng.randrange(n)
    a = m.random_matrix(rng, n, n).paste(kill, 0, m.Matrix.zeros(1, n))
    while True:
        b = m.random_matrix(rng, n, n)
        if any(b.entries[kill]):
            break
    h = m.random_matrix(rng, n, n)
    c = h.sub(h.star()) if kind == "minus" else h.add(h.star())
    return {"a": a, "b": b, "c": c}


def build_exact_closed_form(lib, seed):
    """Solvable-by-construction exact instances on the closed-form path.

    A third of the cycle is dense n = 8 (unitary, equal), about a third is
    n = 6 and the symmetric kinds, the rest diagonal and rect.  The order
    interleaves the classes, so a run that stops mid-cycle keeps the mix.
    """
    heavy = [("minus", 8, "unitary"), ("plus", 8, "equal"), ("plus", 8, "unitary"),
             ("minus", 8, "equal"), ("minus", 8, "unitary"), ("plus", 8, "equal")]
    middle = [("minus", 6, "unitary"), ("sym_right", 8, None), ("plus", 6, "equal"),
              ("sym_left", 8, None), ("plus", 6, "unitary"), ("minus", 6, "equal")]
    light = [("rect_minus", (2, 3, 3), "direct"), ("minus", 8, "diagonal"),
             ("plus", 6, "diagonal"), ("rect_minus", (2, 3, 3), "embedding"),
             ("plus", 8, "diagonal")]
    specs = [spec for trio in zip(heavy, middle, light + [None]) for spec in trio if spec]
    specs *= CLOSED_FORM_COPIES
    cases = []
    for i, (kind, size, family) in enumerate(specs):
        rng = random.Random(seed * 1000 + i)
        if kind in ("minus", "plus"):
            ops = _square(lib, rng, kind, size, family, True)
            cases.append(_make_case(f"{kind}/{family}/n{size}", kind, ops, expected=SOLVABLE))
        elif kind.startswith("sym"):
            cases.append(_make_case(f"{kind}/n{size}", kind, _sym(lib, rng, kind, size, True),
                                    expected=SOLVABLE))
        else:
            ops = _rect(lib, rng, kind, size, "coisometry" if family == "direct" else "diagonal",
                        True)
            cases.append(_make_case(f"{kind}/{family}/{size}", kind, ops, size, SOLVABLE, family))
    return cases


def build_exact_oracle(lib, seed):
    """Small exact instances: solvable, unsolvable and hypothesis-failing."""
    specs = [
        ("minus", 3, "unitary", True), ("plus", 4, "diagonal", False),
        ("minus", 4, "equal", True), ("plus", 3, "diagonal", False),
        ("sym_right", 4, None, False), ("sym_left", 3, None, True),
        ("rect_minus", (2, 3, 3), "coisometry", True), ("rect_plus", (3, 3, 2), "diagonal", False),
        ("minus", 4, "dense_failing", None), ("plus", 3, "dense_failing", None),
        ("minus", 5, "diagonal", True), ("plus", 4, "unitary", True),
        ("plus", 3, "unitary", True), ("rect_plus", (2, 3, 3), "coisometry", True),
    ]
    cases = []
    # Several instances per spec, so that how many random-c draws turn out
    # solvable (the costly outcome) varies less from seed to seed.
    for i, (kind, size, family, solvable) in enumerate(specs * ORACLE_COPIES):
        rng = random.Random(seed * 1000 + i)
        if family == "dense_failing":
            ops = _hyp_failing_pair(lib, rng, kind, size)
            cases.append(_make_case(f"{kind}/dense_failing/n{size}", kind, ops, expected=HYP_FAILED))
            continue
        expected = SOLVABLE if solvable else None
        tag = "solvable" if solvable else "random_c"
        if kind in ("minus", "plus"):
            ops = _square(lib, rng, kind, size, family, solvable)
            cases.append(_make_case(f"{kind}/{family}/{tag}/n{size}", kind, ops, expected=expected))
        elif kind.startswith("sym"):
            cases.append(_make_case(f"{kind}/{tag}/n{size}", kind,
                                    _sym(lib, rng, kind, size, solvable), expected=expected))
        else:
            ops = _rect(lib, rng, kind, size, family, solvable)
            cases.append(_make_case(f"{kind}/{family}/{tag}/{size}", kind, ops, size, expected))
    return cases


# Distinct exact instances of the float workloads: (kind, n, family, solvable).
# Exact generation dominates set-up: a solvable-by-construction instance costs
# about 3 s at n = 32 and 0.5 s at n = 16, and the exact verdict of a random c
# about 0.2 s at n = 16 but seconds at n = 32.  So random c appears at n = 16
# only, on the diagonal family, where it can fail.  The solvable instances are
# dense (family "equal"): float cost then hardly depends on the seed, whereas
# the sparsity of a unitary or diagonal a moves it by 10-30 %.
FLOAT_INSTANCES = {
    "e32": ("plus", 32, "equal", True),
    "e16p": ("plus", 16, "equal", True),
    "e16m": ("minus", 16, "equal", True),
    "e16m2": ("minus", 16, "equal", True),
    "rc16m": ("minus", 16, "diagonal", False),
    "rc16p": ("plus", 16, "diagonal", False),
}
# One cycle of 20: a tenth dense n = 32 (about 0.5 s each), a tenth n = 16
# diagonal with random c (10-25 ms), the rest dense n = 16 (about 85 ms).  So
# the median falls inside the dense n = 16 class and the p95 tail inside the
# n = 32 class, and neither sits on a boundary between classes.  Float cost
# hardly depends on the values, so instances repeat within the cycle to keep
# this mix without paying for more exact generation.
FLOAT_CYCLE = ("e32", "e16p", "e16m", "e16m2", "e16p", "rc16m", "e16m", "e16m2", "e16p", "e16m",
               "e32", "e16m2", "e16p", "e16m", "e16m2", "rc16p", "e16p", "e16m", "e16m2", "e16p")


def _float_cases(lib, seed, scales):
    """Exact instances converted with to_float and scaled by 10**k.

    The expected verdict is the exact verdict of the unscaled exact instance:
    solvable by construction, or computed here from the exact operands.
    """
    exact = {}
    for i, (key, (kind, n, family, solvable)) in enumerate(FLOAT_INSTANCES.items()):
        ops = _square(lib, random.Random(seed * 1000 + i), kind, n, family, solvable)
        expected = SOLVABLE if solvable else closed_form_verdict(lib, kind, ops)[0]
        exact[key] = (ops, expected)
    cases = []
    for key in FLOAT_CYCLE:
        kind, n, family, solvable = FLOAT_INSTANCES[key]
        ops, expected = exact[key]
        tag = "solvable" if solvable else "random_c"
        for k in scales:
            fops = {name: m.to_float().scale(10.0 ** k) for name, m in ops.items()}
            cases.append(_make_case(f"{kind}/{family}/{tag}/n{n}/1e{k:+d}", kind, fops,
                                    expected=expected))
    return cases


def build_float_unscaled(lib, seed):
    return _float_cases(lib, seed, (0,))


def build_float_solve(lib, seed):
    return _float_cases(lib, seed, (-6, 0, 6))


# -- steps and the gate -----------------------------------------------------------


def closed_form_verdict(lib, kind, ops, dims=None, route="direct"):
    """(verdict, family or None, embedded triple or None) from the solvers."""
    s, m = lib.solvers, lib.matrix
    a = ops["a"]
    triple = None
    try:
        if kind in ("minus", "plus"):
            ring = m.MatrixRing(a.rows, a.backend, a.involution)
            fam = s.solve(ring, kind, a, ops["b"], ops["c"])
        elif kind == "sym_right":
            fam = s.solve_sym_right(m.MatrixRing(a.rows, a.backend, a.involution), a, ops["b"])
        elif kind == "sym_left":
            fam = s.solve_sym_left(m.MatrixRing(a.rows, a.backend, a.involution), a, ops["b"])
        else:
            problem = lib.rect.RectProblem(a, ops["b"], ops["c"])
            if route == "embedding":
                fam, triple = lib.rect.solve_rect_via_embedding(problem, _sign(kind))
            else:
                fam = lib.rect.solve_rect(problem, _sign(kind))
    except s.HypothesesFailError:
        return HYP_FAILED, None, None
    except s.UnsolvableError:
        return UNSOLVABLE, None, None
    return SOLVABLE, fam, triple


def check_verdict(lib, kind, ops):
    """Verdict of the check path (hypotheses, then conditions) without solving."""
    s = lib.solvers
    a = ops["a"]
    ring = lib.matrix.MatrixRing(a.rows, a.backend, a.involution)
    report = s.check_hypotheses(ring, a, ops["b"])
    if not report.ok:
        return HYP_FAILED
    conditions = s.solvability_conditions(kind, report, ops["c"])
    return SOLVABLE if all(cond.ok for cond in conditions) else UNSOLVABLE


def equation_residual(kind, ops, x):
    """Left side minus right side of the case's own equation at x."""
    a = ops["a"]
    if kind == "sym_right":
        return (x @ a.star()).add(a @ x.star()).sub(ops["b"])
    if kind == "sym_left":
        return (a.star() @ x).add(x.star() @ a).sub(ops["b"])
    left = a @ x @ ops["b"].star()
    right = ops["b"] @ x.star() @ a.star()
    lhs = left.sub(right) if _sign(kind) == "minus" else left.add(right)
    return lhs.sub(ops["c"])


def exact_solution_failures(case, x, what):
    """The gate on an exact solution: its residual must be exactly zero."""
    if equation_residual(case.kind, case.ops, x).is_zero():
        return []
    return [f"{what}: non-zero exact residual"]


def float_solution_failures(case, x, what):
    """The gate on a float solution: residual small against the scale of the terms."""
    a, b, c = case.ops["a"], case.ops["b"], case.ops["c"]
    res = equation_residual(case.kind, case.ops, x).max_abs()
    scale = a.rows * a.max_abs() * x.max_abs() * b.max_abs() + c.max_abs()
    if res <= FLOAT_RESIDUAL_RTOL * scale:
        return []
    return [f"{what}: residual {res:.3e} exceeds {FLOAT_RESIDUAL_RTOL:g} x {scale:.3e}"]


def _family_members(lib, case, fam, triple, index):
    """x0 and SAMPLES seeded samples, as solutions of the case's own equation."""
    members = [("x0", fam.x0)] + [(f"sample {t}", fam.sample(index * 100 + t))
                                  for t in range(SAMPLES)]
    if triple is not None:
        members = [(w, lib.rect.extract_solution(x, case.dims)) for w, x in members]
    return members


def _verdict_failures(case, verdict, counters):
    counters[f"solvers.verdict.{verdict}"] += 1
    if case.expected is not None and verdict != case.expected:
        return [f"verdict {verdict}, expected {case.expected}"]
    return []


def run_exact_closed_form(lib, case, index, counters):
    verdict, fam, triple = closed_form_verdict(lib, case.kind, case.ops, case.dims, case.route)
    fails = _verdict_failures(case, verdict, counters)
    if fam is not None:
        for what, x in _family_members(lib, case, fam, triple, index):
            fails += exact_solution_failures(case, x, what)
    return fails


def oracle_triple(lib, case):
    """(sign, A, B, rhs) of the real-linearised system for the case (as the CLI builds it)."""
    a = case.ops["a"]
    if case.kind == "sym_right":
        return "plus", lib.matrix.Matrix.identity(a.rows, a.involution), a, case.ops["b"]
    if case.kind == "sym_left":
        return "plus", a.star(), lib.matrix.Matrix.identity(a.rows, a.involution), case.ops["b"]
    return _sign(case.kind), a, case.ops["b"], case.ops["c"]


def run_exact_oracle(lib, case, index, counters):
    verdict, fam, _ = closed_form_verdict(lib, case.kind, case.ops, case.dims)
    fails = _verdict_failures(case, verdict, counters)
    result = lib.oracle.oracle_solve(*oracle_triple(lib, case))
    if verdict == HYP_FAILED:
        return fails  # the solver makes no claim the oracle could contradict
    if result.solvable != (verdict == SOLVABLE):
        counters["oracle.verdict_mismatch"] += 1
        return fails + [f"solver says {verdict}, oracle says solvable={result.solvable}"]
    if fam is not None:
        fails += exact_solution_failures(case, fam.x0, "x0")
        agreement = lib.oracle.verify_family_against_oracle(fam, result)
        if not agreement.ok:
            fails.append("family disagrees with the oracle: " + "; ".join(agreement.witnesses))
    return fails


def run_float(lib, case, index, counters):
    checked = check_verdict(lib, case.kind, case.ops)
    verdict, fam, _ = closed_form_verdict(lib, case.kind, case.ops)
    fails = _verdict_failures(case, verdict, counters)
    if checked != verdict:
        fails.append(f"check says {checked}, solve says {verdict}")
    if fam is not None:
        for what, x in _family_members(lib, case, fam, None, index):
            fails += float_solution_failures(case, x, what)
    return fails


# -- the CLI workload ---------------------------------------------------------------

# The tail of cli_small is set by its slowest tenth of calls: `solve
# --oracle` on the four n = 3 unitary instances, forced solvable, whose cost
# hardly depends on the seed (a unitary a always has full rank).  The
# random-c instances are at n = 2, so that when one turns out solvable, its
# solve stays below that class; at n = 3 it would join the class on some
# seeds and not on others.
CLI_SPECS = (
    # kind, size or dims, family, --force-solvable
    ("minus", 3, "unitary", True),
    ("plus", 2, "diagonal", False),
    ("plus", 3, "unitary", True),
    ("sym_right", 2, None, True),
    ("sym_left", 2, None, False),
    ("rect_minus", (2, 2, 2), "coisometry", True),
    ("minus", 3, "unitary", True),
    ("plus", 3, "unitary", True),
    ("minus", 2, "diagonal", False),
)


# cli_float: dense n = 16 pairs solvable by construction and n = 16 diagonal
# pairs with random c, written at set-up as float instances (the CLI's `gen`
# would spend its time on exact generation).  At n = 16 the float solve is
# a third to a half of a `solve` child's time.
CLI_FLOAT_SPECS = (
    ("plus", 16, "equal", True),
    ("minus", 16, "equal", True),
    ("minus", 16, "diagonal", False),
    ("plus", 16, "diagonal", False),
)


# A CLI child runs starsolve.cli as `python -m` does (runpy, as __main__) and,
# at exit, writes its own peak resident memory (VmHWM) as the last line of its
# standard error.  The parent cannot get that figure from wait4 or
# RUSAGE_CHILDREN: at exec, the kernel folds the memory high-water mark of the
# address space the child was forked with (the benchmark's own) into the
# child's ru_maxrss.
PEAK_PREFIX = "peak_rss_kib="
CLI_CHILD = f"""
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{PEAK_PREFIX}" + kib + "\\n")
atexit.register(peak)
runpy.run_module("starsolve.cli", run_name="__main__", alter_sys=True)
"""


@dataclass
class CliCall:
    """One child-process run of the CLI and how to check it."""

    label: str
    size_class: str
    subcommand: str
    argv: list
    check: object   # callable(exit code) -> list of failures
    case: Case      # the instance; check() reads its expected verdict


class CliWorkload:
    """Sequential CLI runs over files in a work directory inside the checkout:
    exact instances get gen, check, solve --oracle, mp and verify; float
    instances are written at set-up and get check, solve, mp and verify."""

    def __init__(self, lib, seed, workdir, root, src_dir, backend="exact"):
        self.lib = lib
        self.workdir = workdir
        self.root = root
        self.backend = backend
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.peak_rss_kib = 0   # largest peak RSS any child reported
        self.calls = []
        specs = CLI_SPECS if backend == "exact" else CLI_FLOAT_SPECS
        for i, spec in enumerate(specs):
            self._add_case(i, seed * 1000 + i, *spec)

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _add_case(self, i, gen_seed, kind, size, family, force):
        lib = self.lib
        rng = random.Random(gen_seed)
        dims = size if isinstance(size, tuple) else None
        if kind in ("minus", "plus"):
            ops = _square(lib, rng, kind, size, family, force)
        elif kind.startswith("sym"):
            ops = _sym(lib, rng, kind, size, force)
        else:
            ops = _rect(lib, rng, kind, size, family, force)
        exact = self.backend == "exact"
        label = f"{kind}/n{size}" if exact else f"{kind}/{family}/n{size}"
        if force:
            expected = SOLVABLE
        elif exact:
            expected = self._exact_verdict(_make_case(label, kind, ops, dims))
        else:  # the oracle's 2n^2 columns are too many at n = 16; as in float_unscaled
            expected = closed_form_verdict(lib, kind, ops)[0]
        if not exact:
            ops = {name: m.to_float() for name, m in ops.items()}
        case = _make_case(label, kind, ops, dims, expected)
        inst = lib.formats.make_instance(kind, self.backend, ops["a"].involution, ops, dims,
                                         gen_seed)
        expected_doc = lib.formats.instance_to_doc(inst)
        lib.formats.save_matrix(ops["a"], self._path(f"a{i}.json"))

        inst_path = self._path(f"inst{i}.json")
        if not exact:
            lib.formats.save_instance(inst, inst_path)
        gen = ["gen", "--kind", kind, "--dims",
               ",".join(map(str, dims)) if dims else str(size), "--seed", str(gen_seed),
               "--output", inst_path]
        if family is not None:
            gen += ["--family", family]
        if force:
            gen.append("--force-solvable")
        report = {sub: self._path(f"{sub}{i}.json") for sub in ("check", "solve", "mp", "verify")}
        sol_path = self._path(f"x{i}.json")

        def check_gen(code):
            if code != 0:
                return [f"gen exit {code}"]
            with open(inst_path, encoding="utf-8") as fh:
                return [] if json.load(fh) == expected_doc else ["gen wrote another instance"]

        def check_check(code):
            doc = self._report(report["check"], code, 0)
            if isinstance(doc, list):
                return doc
            return [] if doc["verdict"] == case.expected else [
                f"check verdict {doc['verdict']}, expected {case.expected}"]

        def check_solve(code):
            doc = self._report(report["solve"], code, EXIT_FOR_VERDICT[case.expected])
            if isinstance(doc, list):
                return doc
            if doc["verdict"] != case.expected:
                return [f"solve verdict {doc['verdict']}, expected {case.expected}"]
            if case.expected != SOLVABLE:
                return []
            fails = []
            if not all(s["verified"] for s in doc["samples"]) or len(doc["samples"]) != 3:
                fails.append("solve samples not all verified")
            involution = doc["instance"]["involution"]
            if exact and not all(v for k, v in doc["oracle"]["agreement"].items()
                                 if k not in ("trials", "witnesses")):
                fails.append("solve oracle agreement failed")
            if not exact:
                x0 = lib.formats.decode_matrix(doc["samples"][0]["solution"], "float",
                                               involution)
                fails += float_solution_failures(case, x0, "sample 0")
            x = {"version": doc["version"], "type": "matrix", "backend": self.backend,
                 "involution": involution, "matrix": doc["samples"][0]["solution"]}
            with open(sol_path, "w", encoding="utf-8") as fh:
                json.dump(x, fh)
            return fails

        def check_mp(code):
            doc = self._report(report["mp"], code, 0)
            if isinstance(doc, list):
                return doc
            limit = 0.0
            if not exact:  # terms like a x a: two products of n terms each
                a = ops["a"]
                x = lib.formats.decode_matrix(doc["mp_inverse"], "float", a.involution)
                big = max(a.max_abs(), x.max_abs())
                limit = FLOAT_RESIDUAL_RTOL * (1.0 + a.rows ** 2 * big ** 3)
            bad = {k: v for k, v in doc["penrose_residuals"].items() if v > limit}
            return [f"mp Penrose residuals over {limit:g}: {bad}"] if bad else []

        def check_verify(code):
            doc = self._report(report["verify"], code, 0)
            if isinstance(doc, list):
                return doc
            return [] if doc["verified"] is True else ["verify rejected a returned solution"]

        solve = ["solve", "--input", inst_path, "--samples", "3", "--output", report["solve"]]
        steps = [("gen", gen, check_gen)] if exact else []
        steps += [("check", ["check", "--input", inst_path, "--output", report["check"]],
                   check_check),
                  ("solve", solve + ["--oracle"] if exact else solve, check_solve),
                  ("mp", ["mp", "--input", self._path(f"a{i}.json"), "--output", report["mp"]],
                   check_mp)]
        if case.expected == SOLVABLE:
            steps.append(("verify", ["verify", "--input", inst_path, "--solution", sol_path,
                                     "--output", report["verify"]], check_verify))
        for sub, argv, check in steps:
            self.calls.append(CliCall(f"{sub}:{case.label}", case.size_class, sub, argv, check,
                                      case))

    def _exact_verdict(self, case):
        """Ground truth at set-up: hypotheses, then the oracle's verdict."""
        lib = self.lib
        a = case.ops["a"]
        if case.kind in ("minus", "plus"):
            ring = lib.matrix.MatrixRing(a.rows, a.backend, a.involution)
            if not lib.solvers.check_hypotheses(ring, a, case.ops["b"]).ok:
                return HYP_FAILED
        elif case.kind.startswith("rect"):
            problem = lib.rect.RectProblem(a, case.ops["b"], case.ops["c"])
            if not lib.rect.check_rect_hypotheses(problem).ok:
                return HYP_FAILED
        solvable = lib.oracle.oracle_solve(*oracle_triple(lib, case)).solvable
        return SOLVABLE if solvable else UNSOLVABLE

    @staticmethod
    def _report(path, code, expected_code):
        if code != expected_code:
            return [f"exit {code}, expected {expected_code}"]
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def run_child(self, call):
        """Run one call as a CLI child process; returns the gate failures."""
        proc = subprocess.run([sys.executable, "-c", CLI_CHILD, *call.argv],
                              cwd=self.root, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S)
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        if lines and lines[-1].startswith(PEAK_PREFIX):
            self.peak_rss_kib = max(self.peak_rss_kib, int(lines.pop()[len(PEAK_PREFIX):]))
        fails = call.check(proc.returncode)
        if fails and lines:
            fails.append(lines[-1])
        return fails

    def run_in_process(self, call):
        """The same call through cli.main(argv), for the traced run."""
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            code = self.lib.cli.main(list(call.argv))
        return call.check(code)


WHY = {
    "exact_closed_form": "exact closed-form solve and samples at n 6-8 and rect k=8; "
                         "Fraction products and mp_inverse do the work, the oracle none",
    "exact_oracle": "small exact instances checked against the real-linearised oracle; "
                    "its elimination and the family-vs-kernel check dominate",
    "float_unscaled": "float backend at n 16 and 32, unit scale; float elimination and "
                      "Newton polish work, no Fraction, so exact-side changes stay flat",
    "float_solve": "float_unscaled's instances scaled by 1e-6, 1 and 1e+6; records the "
                   "scale-dependent float verdicts as failures",
    "cli_small": "one CLI child process per instance at n 2-3; interpreter start, import, "
                 "JSON and argparse dominate, arithmetic barely counts",
    "cli_float": "one CLI child process per instance on float n 16 files; float solve and "
                 "float JSON beside start-up, no Fraction, so exact-side changes stay flat",
}

# name -> (build function, step); cli_small is built by CliWorkload.
IN_PROCESS = {
    "exact_closed_form": (build_exact_closed_form, run_exact_closed_form),
    "exact_oracle": (build_exact_oracle, run_exact_oracle),
    "float_unscaled": (build_float_unscaled, run_float),
    "float_solve": (build_float_solve, run_float),
}
# name -> backend of the CLI workloads; one child process per instance.
CLI_BACKEND = {"cli_small": "exact", "cli_float": "float"}
NAMES = tuple(IN_PROCESS) + tuple(CLI_BACKEND)
