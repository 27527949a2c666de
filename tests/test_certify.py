"""The closed-form certificate (certify.py): its verdict and real dimension
against the exact elimination (oracle.py) on a probe sweep, its witnesses
under injected faults, and a certified exact n = 16 instance."""

import copy
import dataclasses
import json
import random
import re
import time
from itertools import product

import pytest

from starsolve import cli, formats, verdicts
from starsolve.certify import certify_family
from starsolve.generate import (GenerationError, PAIR_FAMILIES, RECT_FAMILIES,
                                random_rect_instance, random_square_instance,
                                random_sym_instance)
from starsolve.matrix import Matrix
from starsolve.oracle import oracle_solve, verify_family_against_oracle
from starsolve.rect import solve_rect
from starsolve.ring import MatrixRing
from starsolve.scalars import GaussianRational
from starsolve.solvers import MINUS, PLUS, SolutionFamily, solve, solve_sym_left, solve_sym_right
from starsolve.tags import CONJUGATE_TRANSPOSE, TRANSPOSE

I = GaussianRational(0, 1)
RECT_DIMS = ((2, 3, 2), (1, 2, 3), (2, 2, 3), (3, 2, 2), (2, 3, 3))


def scalar(value, involution=CONJUGATE_TRANSPOSE):
    return Matrix.exact([[value]], involution)


def probe_families(involution):
    """Solved families, all forced solvable, at seeds 0-2: square in both
    signs and every pair family at n 1-3; rect in both signs and every rect
    family at RECT_DIMS (draws that raise GenerationError are skipped);
    sym_right and sym_left at n 1-3."""
    for sign in (MINUS, PLUS):
        for family, n, seed in product(PAIR_FAMILIES, (1, 2, 3), range(3)):
            try:
                a, b, c = random_square_instance(random.Random(seed), sign, n, family, True,
                                                 involution)
            except GenerationError:
                continue
            yield solve(MatrixRing(n, involution=involution), sign, a, b, c)
        for dims, family, seed in product(RECT_DIMS, RECT_FAMILIES, range(3)):
            try:
                problem = random_rect_instance(random.Random(seed), dims, family, True,
                                               involution, sign)
            except GenerationError:
                continue
            yield solve_rect(problem, sign)
    for (side, solver), n, seed in product((("right", solve_sym_right), ("left", solve_sym_left)),
                                           (1, 2, 3), range(3)):
        a, b = random_sym_instance(random.Random(seed), side, n, True, involution)
        yield solver(MatrixRing(n, involution=involution), a, b)


@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
def test_certificate_matches_the_elimination_on_the_probe_sweep(involution):
    kinds = set()
    count = 0
    for fam in probe_families(involution):
        certificate = certify_family(fam)
        result = oracle_solve(fam.sign, fam.a, fam.b, fam.c)
        assert certificate.ok, certificate.witnesses
        assert ((certificate.x0_ok, certificate.real_dimension)
                == (result.solvable, result.real_dimension)), (fam.kind, fam.a.shape)
        assert verify_family_against_oracle(fam, result).ok
        kinds.add((fam.kind, fam.sign, fam.a.shape))
        count += 1
    assert count == 168  # 72 square, 18 sym and 78 of the 90 rect draws
    assert {kind for kind, _, _ in kinds} == {"general", "sym_right", "sym_left"}


@pytest.mark.parametrize("sign, involution, dimension", (
    (MINUS, CONJUGATE_TRANSPOSE, 1),  # x - x* = 2i Im(x): the reals
    (PLUS, CONJUGATE_TRANSPOSE, 1),   # x + x* = 2 Re(x): the imaginary axis
    (MINUS, TRANSPOSE, 1),            # x - x = 0: every real x
    (PLUS, TRANSPOSE, 0),             # x + x = 2x: only 0
))
def test_real_dimension_pinned_on_scalars(sign, involution, dimension):
    one = scalar(1, involution)
    zero = Matrix.zeros(1, 1, involution)
    fam = solve(MatrixRing(1, involution=involution), sign, one, one, zero)
    certificate = certify_family(fam)
    assert certificate.ok and certificate.real_dimension == dimension


def test_certificate_refuses_the_float_backend():
    one = Matrix.floating([[1.0]])
    fam = solve(MatrixRing(1, "float"), MINUS, one, one, Matrix.floating([[2j]]))
    with pytest.raises(ValueError, match="exact backend"):
        certify_family(fam)


def test_a_trace_that_is_not_an_integer_fails():
    # g = 1/4 instead of 1/2: the real trace of L is 2 - 2 (1/4) = 3/2
    fam = solve(MatrixRing(1), MINUS, scalar(1), scalar(1), scalar(2 * I))
    bad = copy.copy(fam)
    bad.g = fam.g.half()
    certificate = certify_family(bad)
    assert not certificate.ok and certificate.real_dimension is None
    assert "the real trace of L is 3/2, not an integer" in certificate.witnesses


def test_oracle_comparison_adds_a_witness_per_disagreement():
    fam = solve(MatrixRing(1), MINUS, scalar(1), scalar(1), scalar(2 * I))
    result = oracle_solve(MINUS, fam.a, fam.b, fam.c)
    assert verify_family_against_oracle(fam, result).ok
    wrong_dimension = verify_family_against_oracle(
        fam, dataclasses.replace(result, real_dimension=2))
    assert not wrong_dimension.ok and wrong_dimension.x0_ok
    assert wrong_dimension.witnesses == (
        "the real trace of L is 1, the oracle's real dimension 2",)
    unsolvable = verify_family_against_oracle(fam, dataclasses.replace(result, solvable=False))
    assert not unsolvable.ok and not unsolvable.as_dict()["x0_in_oracle_set"]
    assert unsolvable.witnesses == ("x0 is not in the oracle's solution set",)


# -- fault injection -------------------------------------------------------------


def without_d_prime(fam: SolutionFamily) -> SolutionFamily:
    """The family with g = (1/2) a' in place of (1/2) (a' + d'), d' = a' - a'b b';
    x0 is kept.  The two agree where d = (1 - b b') a is zero, since d = 0
    gives a a' = b b' and so d' = 0."""
    report = fam.report
    d_prime = report.a_dagger - report.a_dagger_b @ report.b_dagger
    bad = copy.copy(fam)
    bad.g = fam.g - d_prime.half()
    return bad


def diagonal_families():
    for involution, sign, n, seed in product((CONJUGATE_TRANSPOSE, TRANSPOSE), (MINUS, PLUS),
                                             (2, 3), range(10)):
        a, b, c = random_square_instance(random.Random(seed), sign, n, "diagonal", True,
                                         involution)
        yield solve(MatrixRing(n, involution=involution), sign, a, b, c)


def test_perturbed_g_fails_the_certificate_on_the_diagonal_families():
    # eq is zero on every v when b = 0, and any g is then right
    caught = 0
    for fam in diagonal_families():
        d = fam.a - fam.report.b_b_dagger @ fam.a
        certificate = certify_family(without_d_prime(fam))
        breaks = not d.is_zero() and not fam.b.is_zero()
        assert certificate.ok != breaks, (fam.sign, fam.a.involution, fam.a)
        if breaks:
            assert certificate.x0_ok and not certificate.homogeneous_in_kernel_ok
            assert any("depends on v" in w for w in certificate.witnesses)
            caught += 1
    assert caught >= 16


def perturbed_x0(fam: SolutionFamily) -> SolutionFamily:
    bad = copy.copy(fam)
    bad.x0 = fam.x0 + Matrix.identity(max(fam.x0.shape), fam.x0.involution).block(
        0, 0, *fam.x0.shape)
    return bad


def test_perturbed_x0_fails_the_certificate():
    caught = 0
    for fam in diagonal_families():
        bad = perturbed_x0(fam)
        if fam.judge(bad.x0).ok:
            continue  # the perturbation lies in the kernel (as for b = 0)
        certificate = certify_family(bad)
        assert not certificate.ok and not certificate.x0_ok
        assert certificate.homogeneous_in_kernel_ok
        assert certificate.witnesses == ("x0's exact residual is not zero",)
        caught += 1
    assert caught >= 40


def solve_with(monkeypatch, tmp_path, fam, *extra):
    """`starsolve solve --oracle --samples 0` on fam's instance, with the
    solver patched to return ``fam``; returns the exit code."""
    ops = {"a": fam.a, "b": fam.b, "c": fam.c}
    inst = formats.make_instance(fam.sign, "exact", fam.a.involution, ops, None, 0)
    path = tmp_path / "inst.json"
    formats.save_instance(inst, str(path))
    monkeypatch.setattr(verdicts, "_solve_instance", lambda inst, rtol: fam)
    return cli.main(["solve", "--input", str(path), "--oracle", "--samples", "0",
                     "--output", str(tmp_path / "out.json"), *extra])


def test_cli_exits_7_on_a_perturbed_g(monkeypatch, tmp_path, capsys):
    fam = next(f for f in diagonal_families()
               if not certify_family(without_d_prime(f)).ok)
    assert solve_with(monkeypatch, tmp_path, without_d_prime(fam)) == 7
    err = capsys.readouterr().err
    assert err.startswith("error: internal self-check failed: oracle certificate failed")
    assert "depends on v" in err
    assert not (tmp_path / "out.json").exists()


def test_cli_certifies_before_it_draws_samples(monkeypatch, tmp_path, capsys):
    # with samples to draw, the first sample of the broken L would fail its
    # re-verification too, but with no witness: the certificate runs first
    fam = next(f for f in diagonal_families()
               if not certify_family(without_d_prime(f)).ok)
    assert solve_with(monkeypatch, tmp_path, without_d_prime(fam), "--samples", "3") == 7
    err = capsys.readouterr().err
    assert err.startswith("error: internal self-check failed: oracle certificate failed")
    assert re.search(r"eq\(L\(v\)\)\[\d+\]\[\d+\] depends on v\[\d+\]\[\d+\]", err)


def test_cli_exits_7_on_a_perturbed_x0_through_the_certificate(monkeypatch, tmp_path, capsys):
    # solve's own re-verification of x0 is switched off: the certificate's
    # exact residual still catches the fault
    fam = next(f for f in diagonal_families() if not f.judge(perturbed_x0(f).x0).ok)
    judge = SolutionFamily.judge
    monkeypatch.setattr(SolutionFamily, "judge", lambda self, x: judge(self, x)._replace(ok=True))
    assert solve_with(monkeypatch, tmp_path, perturbed_x0(fam)) == 7
    err = capsys.readouterr().err
    assert err.startswith("error: internal self-check failed: oracle certificate failed")
    assert "x0's exact residual is not zero" in err


# -- a certified n = 16 instance ---------------------------------------------------

# `solve --oracle` (3 samples) takes about 0.3 s here at n = 16 on a 2-core
# machine; the elimination it replaces took 3.3 s already at n = 12.
N16_WALL_S = 5.0


def test_solve_oracle_certifies_an_exact_n16_instance_in_bounded_time(tmp_path):
    a, b, c = random_square_instance(random.Random(7), MINUS, 16, "unitary")
    inst = formats.make_instance("minus", "exact", a.involution, {"a": a, "b": b, "c": c},
                                 None, 7)
    formats.save_instance(inst, str(tmp_path / "inst.json"))
    out = tmp_path / "out.json"
    start = time.perf_counter()
    code = cli.main(["solve", "--input", str(tmp_path / "inst.json"), "--oracle",
                     "--output", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    oracle = json.loads(out.read_text())["oracle"]
    # a unitary and b invertible: every x with a x b* skew-hermitian, 256 real dimensions
    assert oracle["solvable"] and oracle["real_dimension"] == 256
    assert oracle["agreement"]["homogeneous_images_in_kernel"]
    assert oracle["agreement"]["witnesses"] == []
    assert elapsed < N16_WALL_S, f"{elapsed:.2f} s"
