import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from starsolve import formats, matrix
from starsolve.cli import main
from starsolve.oracle import random_square_instance
from starsolve.solvers import MINUS, PLUS, SolutionFamily

GOLDEN = Path(__file__).parent / "golden"

TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')


def normalized(path):
    return TIMESTAMP.sub('"generated_at": "TIMESTAMP"', Path(path).read_text())


def run_main(*argv):
    return main(list(argv))


# -- golden files -----------------------------------------------------------


def test_golden_mp(tmp_path):
    out = tmp_path / "mp_report.json"
    assert run_main("mp", "--input", str(GOLDEN / "mp_input.json"),
                    "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "mp_report.json").read_text()


def test_golden_check(tmp_path):
    out = tmp_path / "check_report.json"
    assert run_main("check", "--input", str(GOLDEN / "scalar_minus.json"),
                    "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "check_report.json").read_text()


def test_golden_solve(tmp_path):
    out = tmp_path / "solve_report.json"
    assert run_main("solve", "--input", str(GOLDEN / "scalar_minus.json"),
                    "--samples", "2", "--seed", "0", "--oracle",
                    "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "solve_report.json").read_text()


def test_golden_gen(tmp_path):
    out = tmp_path / "gen_instance.json"
    assert run_main("gen", "--kind", "minus", "--family", "unitary",
                    "--dims", "2", "--seed", "7", "--force-solvable",
                    "--output", str(out)) == 0
    assert out.read_text() == (GOLDEN / "gen_instance.json").read_text()


def test_golden_verify(tmp_path):
    out = tmp_path / "verify_report.json"
    assert run_main("verify", "--input", str(GOLDEN / "rect_minus.json"),
                    "--solution", str(GOLDEN / "rect_solution.json"),
                    "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "verify_report.json").read_text()


def test_golden_diag_check(tmp_path):
    out = tmp_path / "r.json"
    assert run_main("check", "--input", str(GOLDEN / "diag_fail.json"),
                    "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "diag_check_report.json").read_text()


def test_golden_diag_solve(tmp_path):
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", str(GOLDEN / "diag_solvable.json"),
                    "--oracle", "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "diag_solve_report.json").read_text()
    doc = json.loads(out.read_text())
    assert doc["x0"][0][0] == ["0", "1", "1", "1"]  # diag(i, 0)


def test_solve_report_is_stable_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        run_main("solve", "--input", str(GOLDEN / "scalar_minus.json"),
                 "--output", str(out))
    assert normalized(a) == normalized(b)


# -- pinned report content ----------------------------------------------------


def test_solve_scalar_x0_is_i(tmp_path):
    out = tmp_path / "r.json"
    run_main("solve", "--input", str(GOLDEN / "scalar_minus.json"),
             "--output", str(out))
    doc = json.loads(out.read_text())
    assert doc["x0"] == [[["0", "1", "1", "1"]]]
    assert doc["verdict"] == "solvable"
    assert all(s["verified"] for s in doc["samples"])


def test_mp_report_pinned_inverse(tmp_path):
    out = tmp_path / "r.json"
    run_main("mp", "--input", str(GOLDEN / "mp_input.json"),
             "--output", str(out))
    doc = json.loads(out.read_text())
    assert doc["mp_inverse"][0][0] == ["1", "25", "0", "1"]
    assert set(doc["penrose_residuals"]) == {
        "axa_minus_a", "xax_minus_x",
        "ax_hermitian_defect", "xa_hermitian_defect"}
    assert max(doc["penrose_residuals"].values()) == 0.0


def test_rect_solve_pinned(tmp_path):
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", str(GOLDEN / "rect_minus.json"),
                    "--oracle", "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["x0"] == [[["0", "1", "1", "2"]]]
    assert doc["oracle"]["agreement"]["x0_in_oracle_set"]


def test_stdout_mode_emits_json(capsys):
    assert run_main("check", "--input", str(GOLDEN / "scalar_minus.json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "solvable"


def test_output_mode_emits_summary(tmp_path, capsys):
    out = tmp_path / "r.json"
    run_main("check", "--input", str(GOLDEN / "scalar_minus.json"),
             "--output", str(out))
    text = capsys.readouterr().out
    assert "verdict: solvable" in text
    assert str(out) in text


# -- exit codes --------------------------------------------------------------


def write_scalar_instance(tmp_path, c_quad, kind="minus"):
    one = ["1", "1", "0", "1"]
    doc = {"version": "1", "kind": kind, "backend": "exact",
           "involution": "conjugate_transpose",
           "operands": {"a": [[one]], "b": [[one]], "c": [[c_quad]]}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_exit_2_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_main("mp", "--input", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def float_matrix_doc(entry):
    return {"version": "1", "type": "matrix", "backend": "float",
            "involution": "conjugate_transpose", "matrix": [[entry]]}


UNREADABLE_INPUTS = {
    # modulus of 1.7e308+1.7e308i overflows the float range
    "modulus_overflow": ("mp", json.dumps(float_matrix_doc([1.7e308, 1.7e308])).encode()),
    "float_int_too_large": ("mp", json.dumps(float_matrix_doc([10 ** 400, 0])).encode()),
    "exact_int_too_long": ("check", json.dumps(
        {"version": "1", "kind": "minus", "backend": "exact",
         "involution": "conjugate_transpose",
         "operands": {"a": [[["1", "1", "0", "1"]]], "b": [[["1", "1", "0", "1"]]],
                      "c": [[["1" + "0" * 5000, "1", "0", "1"]]]}}).encode()),
    "not_utf8": ("check", b"\xff\xfe{}"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_exit_2_unreadable_input(case, tmp_path, capsys):
    command, content = UNREADABLE_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert run_main(command, "--input", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ("check", "solve"))
def test_exit_2_residual_beyond_float_range(command, tmp_path, capsys):
    # c = 10^400 is not skew: its condition residual has no float modulus
    inst = write_scalar_instance(tmp_path, [str(10 ** 400), "1", "0", "1"])
    assert run_main(command, "--input", inst) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ("check", "solve"))
def test_huge_skew_instance_still_solvable(command, tmp_path, capsys):
    inst = write_scalar_instance(tmp_path, ["0", "1", str(10 ** 400), "1"])
    assert run_main(command, "--input", inst) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "solvable"


@pytest.mark.parametrize("tol", ("inf", "nan", "0", "-1e-9"))
def test_exit_2_tolerance_not_finite_and_positive(tol, tmp_path, capsys):
    inst = str(tmp_path / "f.json")
    run_main("gen", "--kind", "minus", "--backend", "float", "--output", inst)
    assert run_main("check", "--input", inst, f"--tol={tol}") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance") and err.count("\n") == 1


def test_exit_2_missing_file():
    assert run_main("check", "--input", "/nonexistent/inst.json") == 2


def test_exit_2_oracle_on_float(tmp_path):
    run_main("gen", "--kind", "minus", "--backend", "float", "--seed", "1",
             "--force-solvable", "--output", str(tmp_path / "f.json"))
    assert run_main("solve", "--input", str(tmp_path / "f.json"),
                    "--oracle") == 2


def test_exit_2_gen_family_on_sym_kind():
    assert run_main("gen", "--kind", "sym_right", "--family", "unitary") == 2


def test_exit_2_gen_infeasible_rejection():
    # hermitian condition starves rect rejection sampling when p < m
    assert run_main("gen", "--kind", "rect_minus", "--family", "rejection",
                    "--dims", "2,2,1", "--seed", "0") == 2


def test_exit_3_not_mp_invertible(tmp_path):
    doc = {"version": "1", "type": "matrix", "backend": "float",
           "involution": "conjugate_transpose",
           "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-8, 0.0]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run_main("mp", "--input", str(path)) == 3


def test_exit_3_mp_inverse_beyond_float_range(tmp_path, capsys):
    # mp([[1e-310]]) = 1e310 is not a float: refused, not inf, NaN or a traceback
    doc = {"version": "1", "type": "matrix", "backend": "float",
           "involution": "conjugate_transpose", "matrix": [[[1e-310, 0.0]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run_main("mp", "--input", str(path)) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_4_unsolvable_writes_report(tmp_path):
    inst = write_scalar_instance(tmp_path, ["1", "1", "0", "1"])
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", inst, "--output", str(out)) == 4
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "unsolvable"
    assert "c_star_neq_minus_c" in doc["failed_conditions"]


def test_exit_5_hypotheses_fail_writes_report(tmp_path):
    one = ["1", "1", "0", "1"]
    zero = ["0", "1", "0", "1"]
    doc = {"version": "1", "kind": "minus", "backend": "exact",
           "involution": "conjugate_transpose",
           "operands": {"a": [[one, zero], [zero, zero]],
                        "b": [[zero, zero], [zero, one]],
                        "c": [[zero, zero], [zero, zero]]}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", str(path), "--output", str(out)) == 5
    report = json.loads(out.read_text())
    assert report["verdict"] == "hypotheses_failed"
    assert "range_condition" in report["failed_conditions"]
    # check reports the same verdict but exits 0: it answered the question
    assert run_main("check", "--input", str(path)) == 0


def test_exit_6_verify_rejects_non_solution(tmp_path):
    bad = {"version": "1", "type": "matrix", "backend": "exact",
           "involution": "conjugate_transpose",
           "matrix": [[["0", "1", "3", "2"]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = tmp_path / "r.json"
    assert run_main("verify", "--input", str(GOLDEN / "rect_minus.json"),
                    "--solution", str(path), "--output", str(out)) == 6
    doc = json.loads(out.read_text())
    assert not doc["verified"]
    assert doc["residual_max_abs"] > 0


def test_exit_2_gen_coisometry_needs_n_at_least_m(capsys):
    assert run_main("gen", "--kind", "rect_minus", "--family", "coisometry",
                    "--dims", "3,2,2") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_2_negative_samples(capsys):
    assert run_main("solve", "--input", str(GOLDEN / "scalar_minus.json"),
                    "--samples", "-1") == 2
    assert "error:" in capsys.readouterr().err


def test_exit_7_self_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(SolutionFamily, "residual_ok", lambda self, x, residual: False)
    assert run_main("solve", "--input", str(GOLDEN / "scalar_minus.json")) == 7
    err = capsys.readouterr().err
    assert err.startswith("error: internal self-check failed")
    assert "Traceback" not in err


def test_solve_computes_each_mp_inverse_once(monkeypatch, tmp_path):
    calls = []
    real = matrix.mp_inverse

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(matrix, "mp_inverse", counting)
    for name in ("diag_solvable.json", "rect_minus.json"):
        calls.clear()
        assert run_main("solve", "--input", str(GOLDEN / name),
                        "--output", str(tmp_path / "r.json")) == 0
        assert len(calls) == 2, name  # a' and b', once each


def test_solve_computes_each_residual_once(monkeypatch, tmp_path):
    calls = []
    real = SolutionFamily.residual

    def counting(self, x):
        calls.append(x.shape)
        return real(self, x)

    monkeypatch.setattr(SolutionFamily, "residual", counting)
    assert run_main("solve", "--input", str(GOLDEN / "diag_solvable.json"),
                    "--samples", "3", "--output", str(tmp_path / "r.json")) == 0
    assert len(calls) == 4  # x0 and three samples, once each


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run_main("frobnicate")
    assert exc.value.code == 2


# -- gen behavior ---------------------------------------------------------------


def test_gen_repeat_is_byte_identical(capsys):
    run_main("gen", "--kind", "sym_left", "--seed", "12")
    first = capsys.readouterr().out
    run_main("gen", "--kind", "sym_left", "--seed", "12")
    assert capsys.readouterr().out == first


def test_gen_all_kinds_solve_when_forced(tmp_path):
    cases = [("minus", []), ("plus", ["--family", "equal"]),
             ("sym_right", []), ("sym_left", []),
             ("rect_minus", ["--dims", "2,3,2"]),
             ("rect_plus", ["--dims", "1,2,2", "--family", "diagonal"])]
    for kind, extra in cases:
        inst = tmp_path / f"{kind}.json"
        assert run_main("gen", "--kind", kind, "--seed", "3",
                        "--force-solvable", "--output", str(inst),
                        *extra) == 0
        assert run_main("solve", "--input", str(inst),
                        "--output", str(tmp_path / f"{kind}_report.json")) == 0


def test_gen_float_backend_solves(tmp_path):
    inst = tmp_path / "f.json"
    assert run_main("gen", "--kind", "minus", "--backend", "float",
                    "--involution", "transpose", "--seed", "5",
                    "--force-solvable", "--output", str(inst)) == 0
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", str(inst), "--output", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["residual_max_abs"] <= 1e-9
    assert doc["tolerance"] == pytest.approx(1e-9)


def test_gen_seed_recorded():
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        run_main("gen", "--kind", "minus", "--seed", "99", "--force-solvable")
    doc = json.loads(buf.getvalue())
    assert doc["seed"] == 99


# -- tolerance handling -----------------------------------------------------------


def test_flag_tolerance_is_used(tmp_path):
    inst = tmp_path / "f.json"
    run_main("gen", "--kind", "minus", "--backend", "float", "--seed", "2",
             "--force-solvable", "--output", str(inst))
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", str(inst), "--tol", "1e-7",
                    "--output", str(out)) == 0
    assert json.loads(out.read_text())["tolerance"] == pytest.approx(1e-7)


def test_float_near_tolerance_sets_indeterminate(tmp_path):
    # c = 1e-9 + 2i: the symmetry residual 2e-9 sits inside the tolerance band
    doc = {"version": "1", "kind": "minus", "backend": "float",
           "involution": "conjugate_transpose",
           "operands": {"a": [[[1.0, 0.0]]], "b": [[[1.0, 0.0]]],
                        "c": [[[1e-9, 2.0]]]}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run_main("check", "--input", str(path), "--output", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["indeterminate"] is True


def test_exact_reports_are_never_indeterminate(tmp_path):
    out = tmp_path / "r.json"
    run_main("check", "--input", str(GOLDEN / "scalar_minus.json"),
             "--output", str(out))
    assert json.loads(out.read_text())["indeterminate"] is False


def write_scaled_float(path, inst, scale):
    """Save ``inst`` on the float backend with every operand times ``scale``."""
    operands = {name: m.to_float().scale(scale) for name, m in inst.operands.items()}
    formats.save_instance(formats.make_instance(inst.kind, matrix.FLOAT, inst.involution,
                                                operands, inst.dims), str(path))


def check_report(path, *extra):
    out = path.parent / "check.json"
    assert run_main("check", "--input", str(path), "--output", str(out), *extra) == 0
    return json.loads(out.read_text())


def test_float_verdicts_are_scale_invariant(tmp_path):
    # Exact square instances through to_float and scaled by 10^k: every float
    # verdict equals the exact one or the report says it is too close to call.
    rng = random.Random(8)
    exact_path, float_path = tmp_path / "exact.json", tmp_path / "float.json"
    for i in range(32):
        sign = (MINUS, PLUS)[i % 2]
        family = ("unitary", "equal", "diagonal", "diagonal")[i % 4]
        involution = (matrix.CONJUGATE_TRANSPOSE, matrix.TRANSPOSE)[i // 16]
        force = (i // 4) % 2 == 0  # else a random c of the sign's symmetry
        a, b, c = random_square_instance(rng, sign, 3, family, force, involution)
        inst = formats.make_instance(sign, matrix.EXACT, involution,
                                     {"a": a, "b": b, "c": c})
        formats.save_instance(inst, str(exact_path))
        exact = check_report(exact_path)["verdict"]
        for k in (-12, -6, 0, 6, 12):
            write_scaled_float(float_path, inst, 10.0 ** k)
            report = check_report(float_path)
            assert report["verdict"] == exact or report["indeterminate"], (i, k)


def test_scaled_float_solve_output_verifies_at_the_same_tol(tmp_path):
    # One equation-residual rule for solve's self-check and for verify: the x0
    # that solve prints at --tol T passes verify at --tol T, and check agrees
    # with solve on the verdict, also on an instance scaled by 1e-6.
    tol = ("--tol", "1e-12")
    exact_path, float_path = tmp_path / "exact.json", tmp_path / "float.json"
    sol_path, out = tmp_path / "x0.json", tmp_path / "solve.json"
    solved = 0
    for kind in ("minus", "plus", "sym_right", "sym_left", "rect_minus"):
        for seed, force in ((0, True), (1, True), (2, False)):
            argv = ["gen", "--kind", kind, "--seed", str(seed), "--dims",
                    "2,3,2" if kind.startswith("rect") else "3",
                    "--output", str(exact_path)]
            assert run_main(*argv, *(["--force-solvable"] if force else [])) == 0
            write_scaled_float(float_path, formats.load_instance(str(exact_path)), 1e-6)
            code = run_main("solve", "--input", str(float_path), "--samples", "1",
                            "--output", str(out), *tol)
            doc = json.loads(out.read_text())
            assert check_report(float_path, *tol)["verdict"] == doc["verdict"]
            if force:
                assert code == 0, (kind, seed)
            if code != 0:
                continue
            solved += 1
            x0 = formats.decode_matrix(doc["x0"], matrix.FLOAT,
                                       doc["instance"]["involution"])
            formats.save_matrix(x0, str(sol_path))
            assert run_main("verify", "--input", str(float_path),
                            "--solution", str(sol_path), *tol) == 0, (kind, seed)
    assert solved >= 10


# -- round trips through the console entry point -----------------------------------


def test_console_script_subprocess_roundtrip(tmp_path):
    inst = tmp_path / "inst.json"
    r = subprocess.run([sys.executable, "-m", "starsolve.cli", "gen",
                        "--kind", "minus", "--seed", "4", "--force-solvable",
                        "--output", str(inst)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    r = subprocess.run([sys.executable, "-m", "starsolve.cli", "solve",
                        "--input", str(inst)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "solvable"


def test_solution_from_solve_verifies(tmp_path):
    out = tmp_path / "r.json"
    run_main("solve", "--input", str(GOLDEN / "scalar_minus.json"),
             "--output", str(out))
    doc = json.loads(out.read_text())
    sol = {"version": "1", "type": "matrix", "backend": "exact",
           "involution": "conjugate_transpose", "matrix": doc["x0"]}
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(sol))
    assert run_main("verify", "--input", str(GOLDEN / "scalar_minus.json"),
                    "--solution", str(sol_path)) == 0
