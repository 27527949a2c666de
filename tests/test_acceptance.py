"""Acceptance gate: eight criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; without -s they appear in captured output on failure.
"""

import json
import random
import re
import time
from pathlib import Path

import pytest

from starsolve.cli import _in_band, main
from starsolve.generate import (GenerationError, PAIR_FAMILIES, random_pair,
                                random_rect_instance, random_sym_instance,
                                random_square_instance)
from starsolve.matrix import (CONJUGATE_TRANSPOSE, EXACT, FLOAT, TRANSPOSE,
                              MatrixRing, is_mp_inverse, mp_inverse,
                              penrose_defects, random_matrix)
from starsolve.oracle import oracle_solve, verify_family_against_oracle
from starsolve.rect import (embed, embed_mp, extract_solution, solve_rect,
                            solve_rect_via_embedding)
from starsolve.ring import NotMpInvertibleError
from starsolve.solvers import (MINUS, PLUS, UnsolvableError, check_hypotheses,
                               equation_lhs, solvability_conditions, solve,
                               solve_sym_left, solve_sym_right)

GOLDEN = Path(__file__).parent / "golden"
TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')

PENROSE_COUNT = 500
LEMMA_COUNT = 200
IFF_COUNT = 300
SYM_COUNT = 200
EMBED_COUNT = 150
FLOAT_COUNT = 100

FLOAT_MP_RTOL = 1e-9
FLOAT_SOLVE_RTOL = 1e-8


def _report(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: Penrose suite ------------------------------------------------


def test_criterion_1_penrose_suite():
    start = time.monotonic()
    failures = 0
    for backend in (EXACT, FLOAT):
        for involution in (CONJUGATE_TRANSPOSE, TRANSPOSE):
            rng = random.Random(f"penrose-{backend}-{involution}")
            for _ in range(PENROSE_COUNT):
                m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4),
                                  backend, involution)
                try:
                    d = mp_inverse(m)
                except NotMpInvertibleError:
                    failures += 1
                    continue
                defects = penrose_defects(m, d)
                if backend == EXACT:
                    if not all(defect.is_zero() for defect in defects):
                        failures += 1
                else:
                    bound = FLOAT_MP_RTOL * (1.0 + m.max_abs())
                    if not all(defect.max_abs() <= bound for defect in defects):
                        failures += 1
    elapsed = time.monotonic() - start
    _report(1, "penrose suite", failures == 0 and elapsed < 30.0,
            f"4x{PENROSE_COUNT} matrices, {failures} failures, {elapsed:.1f}s")


# -- criterion 2: derived-element identities ------------------------------------


def test_criterion_2_derived_element_identities(derived):
    rng = random.Random("identity-suite")
    bad = 0
    for i in range(LEMMA_COUNT):
        size = 1 + i % 3
        involution = CONJUGATE_TRANSPOSE if i % 3 else TRANSPOSE
        family = PAIR_FAMILIES[i % 4]
        if family == "rejection" and size > 2:
            family = "unitary"
        try:
            a, b = random_pair(rng, size, family, involution)
        except GenerationError:
            a, b = random_pair(rng, size, "unitary", involution)
        ring = MatrixRing(size, involution=involution)
        rep = check_hypotheses(ring, a, b)
        d, d_dagger = derived(rep)
        identities = (
            rep.ok,
            is_mp_inverse(d, d_dagger),
            (d_dagger @ b).is_zero(),
            (b.star() @ (d @ d_dagger)).is_zero(),
            (d @ d_dagger @ a).equals(d),
            (d_dagger @ a).equals(d_dagger @ d),
        )
        if not all(identities):
            bad += 1
    _report(2, "derived-element identities", bad == 0,
            f"{LEMMA_COUNT - bad}/{LEMMA_COUNT} pairs exact")


# -- criteria 3 and 4 share one instance suite -----------------------------------


@pytest.fixture(scope="module")
def iff_suite():
    records = []
    for sign in (MINUS, PLUS):
        rng = random.Random(f"iff-{sign}")
        for i in range(IFF_COUNT):
            size = 1 + i % 3
            family = PAIR_FAMILIES[i % 4]
            if family == "rejection" and size > 2:
                family = ("unitary", "equal", "diagonal")[i % 3]
            force = i % 2 == 0
            try:
                a, b, c = random_square_instance(rng, sign, size, family, force)
            except GenerationError:
                a, b, c = random_square_instance(rng, sign, size, "unitary",
                                                 force)
            ring = MatrixRing(size)
            result = oracle_solve(sign, a, b, c)
            try:
                fam = solve(ring, sign, a, b, c)
            except UnsolvableError:
                fam = None
            records.append((sign, ring, a, b, c, fam, result))
    return records


def test_criterion_3_solvability_iff(iff_suite):
    mismatches = 0
    substitution_failures = 0
    solvable = 0
    for sign, ring, a, b, c, fam, result in iff_suite:
        if (fam is not None) != result.solvable:
            mismatches += 1
            continue
        if fam is not None:
            solvable += 1
            if not equation_lhs(sign, a, b, fam.x0).equals(c):
                substitution_failures += 1
    ok = mismatches == 0 and substitution_failures == 0
    _report(3, "solvability iff oracle", ok,
            f"{2 * IFF_COUNT} instances, {solvable} solvable, "
            f"{mismatches} verdict mismatches, "
            f"{substitution_failures} substitution failures")


def test_criterion_4_homogeneous_completeness(iff_suite):
    bad = 0
    solvable = 0
    for sign, ring, a, b, c, fam, result in iff_suite:
        if fam is None:
            continue
        solvable += 1
        agreement = verify_family_against_oracle(fam, result)
        if not agreement.ok:
            bad += 1
    _report(4, "homogeneous completeness", bad == 0,
            f"{solvable} solvable instances, kernel fixed points and "
            f"the exact image check each")


# -- criterion 5: symmetric corollaries --------------------------------------------


def test_criterion_5_symmetric_corollaries():
    bad_verdicts = 0
    bad_substitutions = 0
    for side in ("right", "left"):
        rng = random.Random(f"sym-{side}")
        solver = solve_sym_right if side == "right" else solve_sym_left
        for i in range(SYM_COUNT):
            size = 1 + i % 3
            force = i % 2 == 0
            a, b = random_sym_instance(rng, side, size, force)
            ring = MatrixRing(size)
            try:
                fam = solver(ring, a, b)
            except UnsolvableError:
                fam = None
            eye = ring.one()
            if side == "right":
                result = oracle_solve(PLUS, eye, a, b)
            else:
                result = oracle_solve(PLUS, a.star(), eye, b)
            if (fam is not None) != result.solvable:
                bad_verdicts += 1
                continue
            if fam is None:
                continue
            for seed in range(5):
                x = fam.sample(seed)
                if side == "right":
                    lhs = (x @ a.star()).add(a @ x.star())
                else:
                    lhs = (a.star() @ x).add(x.star() @ a)
                if not lhs.equals(b):
                    bad_substitutions += 1
    ok = bad_verdicts == 0 and bad_substitutions == 0
    _report(5, "symmetric corollaries", ok,
            f"2x{SYM_COUNT} instances, {bad_verdicts} verdict mismatches, "
            f"{bad_substitutions} substitution failures")


# -- criterion 6: rectangular embedding --------------------------------------------


def test_criterion_6_embedding():
    rng = random.Random("embed-suite")
    dims_cycle = [(m, n, p) for m in (1, 2) for n in (1, 2) for p in (1, 2)]
    bad_penrose = 0
    bad_agreement = 0
    bad_coincide = 0
    bad_verify = 0
    for i in range(EMBED_COUNT):
        dims = dims_cycle[i % len(dims_cycle)]
        m, n, p = dims
        force = i % 2 == 0
        sign = MINUS if i % 3 else PLUS
        if n >= m and p >= m and i % 5 == 0:
            family = "rejection"
        elif n >= m and i % 2 == 0:
            family = "coisometry"
        else:
            family = "diagonal"
        try:
            prob = random_rect_instance(rng, dims, family, force,
                                        CONJUGATE_TRANSPOSE, sign)
        except GenerationError:
            prob = random_rect_instance(rng, dims, "diagonal", force,
                                        CONJUGATE_TRANSPOSE, sign)

        triple = embed(prob)
        da, db = embed_mp(mp_inverse(prob.a), mp_inverse(prob.b), prob.dims)
        if not (is_mp_inverse(triple.a, da) and is_mp_inverse(triple.b, db)):
            bad_penrose += 1

        try:
            fam = solve_rect(prob, sign=sign)
        except UnsolvableError:
            fam = None
        try:
            sq_fam, _ = solve_rect_via_embedding(prob, sign=sign)
        except UnsolvableError:
            sq_fam = None
        if (fam is None) != (sq_fam is None):
            bad_agreement += 1
            continue
        if fam is None:
            continue
        extracted = extract_solution(sq_fam.x0, prob.dims)
        if not extracted.equals(fam.x0):
            bad_coincide += 1
        direct_ok = fam.residual(fam.x0).is_zero()
        embedded_ok = equation_lhs(sign, triple.a, triple.b,
                                   sq_fam.x0).equals(triple.c)
        if not (direct_ok and embedded_ok):
            bad_verify += 1
    ok = (bad_penrose == 0 and bad_agreement == 0 and bad_coincide == 0
          and bad_verify == 0)
    _report(6, "rectangular embedding", ok,
            f"{EMBED_COUNT} instances, penrose {bad_penrose}, "
            f"agreement {bad_agreement}, coincide {bad_coincide}, "
            f"verify {bad_verify} failures")


# -- criterion 7: float-path sanity ---------------------------------------------


def test_criterion_7_float_sanity():
    rng = random.Random("float-suite")
    residual_failures = 0
    verdict_matches = 0
    unflagged_mismatches = 0
    for i in range(FLOAT_COUNT):
        size = 1 + i % 3
        sign = MINUS if i % 2 else PLUS
        family = ("unitary", "equal", "diagonal")[i % 3]
        force = (i // 2) % 2 == 0
        a, b, c = random_square_instance(rng, sign, size, family, force)
        ring = MatrixRing(size)
        try:
            solve(ring, sign, a, b, c)
            exact_solvable = True
        except UnsolvableError:
            exact_solvable = False

        af, bf, cf = a.to_float(), b.to_float(), c.to_float()
        fring = MatrixRing(size, backend=FLOAT)
        try:
            fam = solve(fring, sign, af, bf, cf)
            float_solvable = True
        except UnsolvableError:
            fam = None
            float_solvable = False

        if float_solvable:
            bound = FLOAT_SOLVE_RTOL * (1.0 + cf.max_abs())
            if fam.residual(fam.x0).max_abs() > bound:
                residual_failures += 1

        if exact_solvable == float_solvable:
            verdict_matches += 1
        else:
            rep = check_hypotheses(fring, af, bf)
            conds = solvability_conditions(sign, rep, cf)
            pairs = [(c_.residual.max_abs(), c_.tol)
                     for c_ in conds + rep.conditions]
            if not any(_in_band(res, tol) for res, tol in pairs):
                unflagged_mismatches += 1
    ok = (residual_failures == 0 and verdict_matches >= FLOAT_COUNT - 1
          and unflagged_mismatches == 0)
    _report(7, "float-path sanity", ok,
            f"{FLOAT_COUNT} instances, {verdict_matches} verdict matches, "
            f"{residual_failures} residual failures, "
            f"{unflagged_mismatches} unflagged mismatches")


# -- criterion 8: CLI contract -----------------------------------------------------


def test_criterion_8_cli_contract(tmp_path):
    def normalized(path):
        return TIMESTAMP.sub('"generated_at": "TIMESTAMP"',
                             Path(path).read_text())

    goldens_ok = True
    cases = [
        (["mp", "--input", str(GOLDEN / "mp_input.json")], "mp_report.json"),
        (["check", "--input", str(GOLDEN / "scalar_minus.json")],
         "check_report.json"),
        (["solve", "--input", str(GOLDEN / "scalar_minus.json"),
          "--samples", "2", "--seed", "0", "--oracle"], "solve_report.json"),
        (["check", "--input", str(GOLDEN / "diag_fail.json")],
         "diag_check_report.json"),
        (["solve", "--input", str(GOLDEN / "diag_solvable.json"), "--oracle"],
         "diag_solve_report.json"),
        (["solve", "--input", str(GOLDEN / "rect_minus.json"), "--oracle"],
         None),
        (["verify", "--input", str(GOLDEN / "rect_minus.json"),
          "--solution", str(GOLDEN / "rect_solution.json")],
         "verify_report.json"),
        (["gen", "--kind", "minus", "--family", "unitary", "--dims", "2",
          "--seed", "7", "--force-solvable"], "gen_instance.json"),
    ]
    for argv, golden_name in cases:
        out = tmp_path / (golden_name or "scratch.json")
        code = main(argv + ["--output", str(out)])
        if code != 0:
            goldens_ok = False
            continue
        if golden_name and normalized(out) != (GOLDEN / golden_name).read_text():
            goldens_ok = False

    bad_instance = tmp_path / "bad.json"
    bad_instance.write_text("{nope")
    tiny = tmp_path / "tiny.json"  # mp([[1e-310]]) = 1e310 is beyond the float range
    tiny.write_text(json.dumps(
        {"version": "1", "type": "matrix", "backend": "float",
         "involution": "conjugate_transpose", "matrix": [[[1e-310, 0.0]]]}))
    unsolvable = tmp_path / "unsolvable.json"
    one = ["1", "1", "0", "1"]
    unsolvable.write_text(json.dumps(
        {"version": "1", "kind": "minus", "backend": "exact",
         "involution": "conjugate_transpose",
         "operands": {"a": [[one]], "b": [[one]], "c": [[one]]}}))
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(
        {"version": "1", "type": "matrix", "backend": "exact",
         "involution": "conjugate_transpose",
         "matrix": [[["0", "1", "3", "2"]]]}))

    exit_codes_ok = (
        main(["check", "--input", str(bad_instance)]) == 2
        and main(["mp", "--input", str(tiny)]) == 3
        and main(["solve", "--input", str(unsolvable),
                  "--output", str(tmp_path / "r4.json")]) == 4
        and main(["solve", "--input", str(GOLDEN / "diag_fail.json"),
                  "--output", str(tmp_path / "r5.json")]) == 5
        and main(["verify", "--input", str(GOLDEN / "rect_minus.json"),
                  "--solution", str(wrong),
                  "--output", str(tmp_path / "r6.json")]) == 6
    )
    _report(8, "cli contract", goldens_ok and exit_codes_ok,
            f"goldens {'ok' if goldens_ok else 'FAILED'}, "
            f"exit codes {'ok' if exit_codes_ok else 'FAILED'}")
