import gc
import hashlib
import io
import itertools
import json
import random
import re
import subprocess
import sys
import tokenize
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from starsolve import formats, matrix, parse, tags
from starsolve.cli import main, run
from starsolve.draws import random_matrix
from starsolve.generate import random_square_instance, random_sym_instance
from starsolve.ring import MatrixRing
from starsolve.solvers import MINUS, PLUS, SolutionFamily, solve

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


def _float_instance(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_main("gen", "--kind", "minus", "--dims", "3", "--seed", "4",
                    "--force-solvable", "--backend", "float", "--output", str(inst)) == 0
    return inst


def test_golden_float_solve(tmp_path):
    out = tmp_path / "r.json"
    assert run_main("solve", "--input", str(_float_instance(tmp_path)), "--samples", "2",
                    "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "float_solve_report.json").read_text()


def test_golden_float_mp(tmp_path):
    # c, not a: the unitary family's a has an inverse of 0s and units
    c = formats.load_instance(str(_float_instance(tmp_path))).operands["c"]
    matrix_path, out = tmp_path / "c.json", tmp_path / "r.json"
    formats.save_matrix(c, str(matrix_path))
    assert run_main("mp", "--input", str(matrix_path), "--output", str(out)) == 0
    assert normalized(out) == (GOLDEN / "float_mp_report.json").read_text()


@pytest.mark.parametrize("which", ("solve_report", "instance", "gen"))
def test_writing_a_float_n16_document_peaks_near_twice_its_text(which, monkeypatch, tmp_path):
    # four 16 x 16 matrices in an 88 KB report; three in a 49 KB instance
    gen = ("gen", "--kind", "minus", "--dims", "16", "--seed", "1", "--force-solvable",
           "--backend", "float")
    inst = tmp_path / "inst.json"
    assert run_main(*gen, "--output", str(inst)) == 0
    if which == "gen":
        # from the instance gen has drawn to its text: the document and its writing
        make, written = formats.make_instance, []

        def made(*args):
            built = make(*args)
            tracemalloc.start()
            return built

        def write(doc, path):
            written.append((formats.dumps_doc(doc), tracemalloc.get_traced_memory()[1]))

        monkeypatch.setattr(formats, "make_instance", made)
        monkeypatch.setattr(formats, "write_doc", write)
        try:
            assert run_main(*gen, "--output", str(inst)) == 0
        finally:
            tracemalloc.stop()
        (text, peak), = written
        assert text == inst.read_text()
    else:
        if which == "instance":
            doc = formats.instance_to_doc(formats.load_instance(str(inst)))
        else:
            docs = []
            monkeypatch.setattr(formats, "write_doc", lambda doc, path: docs.append(doc))
            assert run_main("solve", "--input", str(inst), "--output",
                            str(tmp_path / "r.json")) == 0
            doc, = docs
        tracemalloc.start()
        try:
            text = formats.dumps_doc(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 2.5 * len(text)


# a refusal, an unsolvable verdict and both symmetric kinds: (gen argv of the
# input, or None for diag_fail.json), command argv, exit code, golden report
VERDICT_GOLDENS = {
    "diag_fail_solve": (None, ("solve",), 5),
    "diag_unsolvable_solve": (("--kind", "minus", "--family", "diagonal", "--dims", "3",
                               "--seed", "1"), ("solve",), 4),
    "sym_left_solve": (("--kind", "sym_left", "--dims", "2", "--seed", "2"),
                       ("solve", "--samples", "2"), 0),
    "sym_right_check": (("--kind", "sym_right", "--dims", "2", "--seed", "1"), ("check",), 0),
}


@pytest.mark.parametrize("name", sorted(VERDICT_GOLDENS))
def test_golden_verdict_reports(name, tmp_path):
    gen_argv, (command, *flags), code = VERDICT_GOLDENS[name]
    inst = GOLDEN / "diag_fail.json"
    if gen_argv:
        inst = tmp_path / "inst.json"
        assert run_main("gen", *gen_argv, "--output", str(inst)) == 0
    out = tmp_path / "r.json"
    assert run_main(command, "--input", str(inst), *flags, "--output", str(out)) == code
    assert normalized(out) == (GOLDEN / f"{name}_report.json").read_text()


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
    # integer literals beyond the 4,300 digits that int() converts from text
    "seed_literal_too_long": ("check", json.dumps(
        {"version": "1", "kind": "minus", "backend": "exact",
         "involution": "conjugate_transpose", "seed": 0,
         "operands": {name: [[["1", "1", "0", "1"]]] for name in "abc"}}
    ).replace('"seed": 0', '"seed": ' + "1" * 5000).encode()),
    "float_literal_too_long": ("mp", json.dumps(float_matrix_doc([0, 0])).replace(
        "[[[0, 0]]]", "[[[" + "1" * 5000 + ", 0]]]").encode()),
    "not_utf8": ("check", b"\xff\xfe{}"),
    # deeper than the JSON decoder recurses
    "nested_too_deep": ("mp", b"[" * 200_000 + b"]" * 200_000),
    "matrix_file_not_an_object": ("mp", b"[]"),
    "matrix_empty": ("mp", json.dumps(dict(float_matrix_doc([0, 0]), matrix=[])).encode()),
    "matrix_not_a_list": ("mp", json.dumps(dict(float_matrix_doc([0, 0]), matrix="1")).encode()),
    "matrix_row_empty": ("mp", json.dumps(dict(float_matrix_doc([0, 0]), matrix=[[]])).encode()),
    "matrix_file_type_not_matrix": ("mp", json.dumps(dict(float_matrix_doc([0, 0]),
                                                          type="vector")).encode()),
    "operands_not_an_object": ("check", json.dumps(
        {"version": "1", "kind": "minus", "backend": "exact",
         "involution": "conjugate_transpose", "operands": []}).encode()),
}


def test_exit_2_integer_string_with_a_trailing_newline(tmp_path, capsys):
    # a regex $ also matches before a final newline, and int() takes "7\n"
    doc = json.loads((GOLDEN / "scalar_minus.json").read_text())
    doc["operands"]["a"][0][0] = ["7\n", "2", "0", "1"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run_main("check", "--input", str(path)) == 2
    assert capsys.readouterr().err == ("error: operand 'a'[0][0] must be a decimal integer "
                                       "string, got '7\\n'\n")


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


def float_instance(tmp_path, kind, involution="conjugate_transpose", **ops):
    doc = {"version": "1", "kind": kind, "backend": "float", "involution": involution,
           "operands": {name: [[[x, 0.0] for x in row] for row in rows]
                        for name, rows in ops.items()}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ("check", "solve"))
def test_exit_2_nan_residual_keeps_output_file(command, tmp_path, capsys):
    # the hermitian residual of this pair is inf * 0 = nan
    inst = float_instance(tmp_path, "minus", a=[[1e-200]], b=[[1e200]], c=[[0.0]])
    out = tmp_path / "report.json"
    out.write_text("previous report\n")
    assert run_main(command, "--input", inst, "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert out.read_text() == "previous report\n"


def test_exit_2_verify_tolerance_overflow(tmp_path, capsys):
    # |a| |x| |b| = 1e600 overflows, and an inf tolerance would pass the
    # residual diag(2e100, 2e200)
    inst = float_instance(tmp_path, "plus", a=[[1e200, 0.0], [0.0, 1.0]],
                          b=[[1e200, 0.0], [0.0, 1.0]], c=[[0.0, 0.0], [0.0, 0.0]])
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"version": "1", "type": "matrix", "backend": "float",
                             "involution": "conjugate_transpose",
                             "matrix": [[[1e-300, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [1e200, 0.0]]]}))
    assert run_main("verify", "--input", inst, "--solution", str(x)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ("check", "solve"))
def test_huge_skew_instance_still_solvable(command, tmp_path, capsys):
    inst = write_scalar_instance(tmp_path, ["0", "1", str(10 ** 400), "1"])
    assert run_main(command, "--input", inst) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "solvable"


@pytest.mark.parametrize("tol", ("inf", "nan", "0", "-1e-9"))
def test_exit_2_tolerance_not_finite_and_positive(tol, tmp_path, capsys):
    # no input exists: the tolerance is checked before any file is read
    missing = str(tmp_path / "missing.json")
    for argv in (("check",), ("solve",), ("verify", "--solution", missing)):
        assert run_main(*argv, "--input", missing, f"--tol={tol}") == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: tolerance") and err.count("\n") == 1, argv
    # mp has no --tol: no decision of mp_inverse reads one
    with pytest.raises(SystemExit) as exc:
        run_main("mp", "--input", missing, f"--tol={tol}")
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ("--kind", "minus", "--dims", "99999999999999999999999"),
    ("--kind", "rect_plus", "--dims", "1,1,99999999999999999999999", "--family", "diagonal"),
])
def test_exit_2_gen_dims_beyond_an_index(argv, capsys):
    # no range or list of such a length exists; sizes that fit an index but
    # not in memory are not tried here
    assert run_main("gen", *argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --dims must be between 1 and {sys.maxsize}, got {argv[3]!r}\n"


@pytest.mark.parametrize("argv, err", [
    (("--kind", "minus", "--dims", "2,2"), "--dims must be n for 'minus', got '2,2'"),
    (("--kind", "rect_plus", "--dims", "2"), "--dims must be m,n,p for 'rect_plus', got '2'"),
    (("--kind", "plus", "--dims", "two"), "--dims must be integers, got 'two'"),
    (("--kind", "minus", "--family", "coisometry"),
     "--family must be one of ('unitary', 'equal', 'diagonal', 'rejection') for 'minus'"),
    (("--kind", "rect_minus", "--family", "unitary"),
     "--family must be one of ('coisometry', 'diagonal', 'rejection') for 'rect_minus'"),
])
def test_exit_2_gen_refuses_dims_and_family(argv, err, capsys):
    assert run_main("gen", *argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv, families", [
    (("--kind", "minus"), ('unitary', 'equal', 'diagonal', 'rejection')),
    (("--kind", "rect_plus", "--dims", "2,2,2"), ('coisometry', 'diagonal', 'rejection')),
])
def test_exit_2_gen_refuses_an_empty_family(argv, families, capsys):
    # an empty name is a name, not an absent one: refused, as sym kinds refuse it
    assert run_main("gen", *argv, "--family", "") == 2
    assert capsys.readouterr().err == (f"error: --family must be one of {families} "
                                       f"for {argv[1]!r}\n")


def test_gen_validates_its_instance_once(monkeypatch, tmp_path):
    calls = []
    real = formats._validate_instance
    monkeypatch.setattr(formats, "_validate_instance",
                        lambda inst: calls.append(inst.kind) or real(inst))
    assert run_main("gen", "--kind", "rect_minus", "--dims", "1,2,2",
                    "--output", str(tmp_path / "inst.json")) == 0
    assert calls == ["rect_minus"]


def test_mp_of_a_graded_diagonal_exits_0(tmp_path):
    # diag(1, 1e-8) has rank 2 at any threshold near PIVOT_RTOL: inverted
    doc = {"version": "1", "type": "matrix", "backend": "float",
           "involution": "conjugate_transpose",
           "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-8, 0.0]]]}
    path, out = tmp_path / "m.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert run_main("mp", "--input", str(path), "--output", str(out)) == 0
    assert json.loads(out.read_text())["mp_inverse"][1][1] == [1e8, 0.0]


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


@pytest.mark.parametrize("solution, err", [
    ({"backend": "float", "matrix": [[[0.0, 0.0]]]}, "solution tags do not match the instance"),
    ({"backend": "exact", "matrix": [[["0", "1", "0", "1"]] * 2]},
     "solution must have shape (1, 1), got (1, 2)"),
])
def test_exit_2_verify_refuses_the_solution(solution, err, tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"version": "1", "type": "matrix",
                                "involution": "conjugate_transpose", **solution}))
    assert run_main("verify", "--input", str(GOLDEN / "scalar_minus.json"),
                    "--solution", str(path)) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


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
    judge = SolutionFamily.judge
    monkeypatch.setattr(SolutionFamily, "judge", lambda self, x: judge(self, x)._replace(ok=False))
    assert run_main("solve", "--input", str(GOLDEN / "scalar_minus.json")) == 7
    err = capsys.readouterr().err
    assert err.startswith("error: internal self-check failed")
    assert "Traceback" not in err


@pytest.mark.parametrize("involution", ("conjugate_transpose", "transpose"))
def test_exit_2_when_a_sample_overflows(involution, tmp_path, capsys):
    # x0 = 0 is exact, but eq(v) at a = b = 1e200 I overflows, so the sample's
    # residual is NaN: an input float arithmetic cannot evaluate, not an
    # internal fault; under transpose a NaN times a real factor also has a NaN
    # imaginary part, which no arithmetic result is re-checked for
    big, zero = [[1e200, 0.0], [0.0, 1e200]], [[0.0, 0.0], [0.0, 0.0]]
    inst = float_instance(tmp_path, "minus", involution, a=big, b=big, c=zero)
    assert run_main("solve", "--input", inst, "--samples", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a residual's largest |entry| is nan")
    assert err.count("\n") == 1


def test_solve_computes_each_mp_inverse_once(monkeypatch, tmp_path):
    calls = []
    real = matrix.mp_inverse

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(matrix, "mp_inverse", counting)
    # once per distinct operand: a' and b' for diag_solvable, a' alone for
    # rect_minus, whose b is its a
    for name, expected in (("diag_solvable.json", 2), ("rect_minus.json", 1)):
        calls.clear()
        assert run_main("solve", "--input", str(GOLDEN / name),
                        "--output", str(tmp_path / "r.json")) == 0
        assert len(calls) == expected, name


def count_products(monkeypatch, tmp_path, sub, inst, *rest):
    """(exit code, Matrix.mul calls) of one in-process CLI run."""
    calls = []
    real = matrix.Matrix.mul

    def counting(self, other):
        calls.append((self.shape, other.shape))
        return real(self, other)

    monkeypatch.setattr(matrix.Matrix, "mul", counting)
    code = run_main(sub, "--input", str(inst), *rest, "--output", str(tmp_path / "r.json"))
    return code, len(calls)


@pytest.mark.parametrize("argv, expected", [
    # solve on rect_minus (b == a): 2 for a' (full column rank), 4 in the
    # hypotheses, 2 in the conditions, 3 for g and x0 = g c h, 2 per
    # residual (x0 and 3 samples), 4 per sample's homogeneous part; b != a
    # adds 2 for b' and 2 for b b' and b' a; check runs the same solver call
    # as solve, so it also forms g and x0
    (("solve", "rect_minus.json", "--samples", "3"), 31),
    (("solve", "diag_solvable.json", "--samples", "3"), 35),
    (("check", "rect_minus.json"), 11),
    (("check", "diag_solvable.json"), 15),
    (("verify", "rect_minus.json", "--solution", str(GOLDEN / "rect_solution.json")), 2),
])
def test_cli_product_counts(monkeypatch, tmp_path, argv, expected):
    # Every product of the closed form is computed once: a recomputed one
    # raises these counts.
    sub, name, *rest = argv
    assert count_products(monkeypatch, tmp_path, sub, GOLDEN / name, *rest) == (0, expected)


@pytest.mark.parametrize("argv, expected", [
    # diag_solvable.json on floats: the float MP-inverse forms no product, so
    # mp keeps only the 4 of its Penrose residuals, and check and solve lose
    # the 2 products of each of the 2 exact MP-inverses (a' and b')
    (("mp",), 4),
    (("check",), 11),
    (("solve", "--samples", "3"), 31),
])
def test_cli_product_counts_float(monkeypatch, tmp_path, argv, expected):
    inst = formats.load_instance(str(GOLDEN / "diag_solvable.json"))
    write_scaled_float(tmp_path / "inst.json", inst, 1.0)
    formats.save_matrix(inst.operands["a"].to_float(), str(tmp_path / "a.json"))
    sub, *rest = argv
    path = tmp_path / ("a.json" if sub == "mp" else "inst.json")
    assert count_products(monkeypatch, tmp_path, sub, path, *rest) == (0, expected)


@pytest.mark.parametrize("kind, seed, argv, expected, code", [
    # the sym goldens' instances: 2 for a', 1 for the projection E_a or F_a,
    # 2 for proj b proj, 2 for x0 = g b h, 2 per residual (x0 and 3
    # samples), 4 per sample's homogeneous part; sym_right seed 1 has
    # b* != b, so it stops at its conditions
    ("sym_left", 2, ("check",), 7, 0),
    ("sym_right", 1, ("check",), 5, 0),
    ("sym_left", 2, ("solve", "--samples", "3"), 27, 0),
    ("sym_right", 1, ("solve", "--samples", "3"), 5, 4),
])
def test_cli_product_counts_sym_kinds(monkeypatch, tmp_path, kind, seed, argv, expected, code):
    inst = tmp_path / "inst.json"
    assert run_main("gen", "--kind", kind, "--dims", "2", "--seed", str(seed),
                    "--output", str(inst)) == 0
    sub, *rest = argv
    assert count_products(monkeypatch, tmp_path, sub, inst, *rest) == (code, expected)


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


@pytest.mark.parametrize("backend, expected", [
    # exact: the report reads each of the 4 residuals (2 conditions on c, the
    # range and the hermitian one) once; float: the same 4, and 14 in the
    # solver (8 for the tolerances, 4 zero tests, 2 MP-inverse scalings)
    ("exact", 4),
    ("float", 18),
])
def test_check_measures_each_residual_once(monkeypatch, tmp_path, backend, expected):
    path = GOLDEN / "diag_solvable.json"
    if backend == "float":
        write_scaled_float(tmp_path / "inst.json", formats.load_instance(str(path)), 1.0)
        path = tmp_path / "inst.json"
    calls = []
    real = matrix.Matrix.max_abs

    def counting(self):
        calls.append(self.shape)
        return real(self)

    monkeypatch.setattr(matrix.Matrix, "max_abs", counting)
    assert run_main("check", "--input", str(path), "--output", str(tmp_path / "r.json")) == 0
    assert len(calls) == expected


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


# sha256 of `gen` stdout at seed 7, dims 2 or 2,3,2, keyed by (kind, family,
# involution, force_solvable): a generator refactor that changes a drawn byte
# fails here
GEN_SHA256 = {
    ("minus", "unitary", "conjugate_transpose", False): "83597119ba8f5c859fa3cb3021adcfa7504bd48a31b177c9d1794f8699b6c3b9",
    ("minus", "unitary", "conjugate_transpose", True): "1c10ff476858496a8506b949851eab3407feb67639c8e539374c9c22206a1fcb",
    ("minus", "unitary", "transpose", False): "a04ccc92c2de4681253eff586858e052db0042e1bca17dd1c7ec96b28169659d",
    ("minus", "unitary", "transpose", True): "3b26c165bbc911d5d276cddfee1244467f35a5e30b7ea3c50625df849b7c41c1",
    ("minus", "equal", "conjugate_transpose", False): "55dca85199030c83f590cbd691e066d5f5d024090d4b1ee73861bd7e31a72671",
    ("minus", "equal", "conjugate_transpose", True): "f489f195ed6e1ebfc64c684695867f20c8abfe106a63c137a92e65cc18584f84",
    ("minus", "equal", "transpose", False): "e42bdd536a8b91f1d0af3804d7f3e0b6f66ca019bc966644768c429aafb65312",
    ("minus", "equal", "transpose", True): "5708cdb8a6d475a2c9e9f11db514cc6a58ac45c3c2d14dd502d17b9e49a0dcc3",
    ("minus", "diagonal", "conjugate_transpose", False): "5daa7f0aa66a6dd6d9857c769f695faf476e661711cbce3170fc088f12237342",
    ("minus", "diagonal", "conjugate_transpose", True): "76f826c1c4330e454c96f844a8ac010137dc0516fa591d4e722e14ec12650dd4",
    ("minus", "diagonal", "transpose", False): "4f2d6cd875e4f2ef28748c6fa2cad41bbcce6eb0112c0d1595664b496b72c3b8",
    ("minus", "diagonal", "transpose", True): "84da79d2d0874f6e2ae764c9408962d82c2339c5c55a53a9a478ff75b791390b",
    ("minus", "rejection", "conjugate_transpose", False): "209b36885960673e6e4110f30692fa8b31448d69bd8a8766326236e521a6e3cf",
    ("minus", "rejection", "conjugate_transpose", True): "9617b34db6e253104af9d465bf799c5221fcdbffaeffc037a4e26d0d7850b578",
    ("minus", "rejection", "transpose", False): "64613ceeec4faf218d1c4ce16927adc15f5e7ab914ac4756483c4f039b55234f",
    ("minus", "rejection", "transpose", True): "6f19a7437e9fca7729c0182d5e1357615c1c3e90c5df9265131407b186910500",
    ("plus", "unitary", "conjugate_transpose", False): "e1ce8db7a93f7ab87f55526c52fa21ee4f0bc43961ea3f6703c8e5d58157b839",
    ("plus", "unitary", "conjugate_transpose", True): "a2747925f68b5115d7a630cc238ff7479e31c118a8b7f07b5091bfafd5374ca7",
    ("plus", "unitary", "transpose", False): "f925b8097eddcf82373adc90e7d1fde0c51e3d093e0430da2cf02a4724a1676e",
    ("plus", "unitary", "transpose", True): "68b3cf802e69367b8146b4d93d497aec4c7cb21316e93ee9613669cacfba0dbd",
    ("plus", "equal", "conjugate_transpose", False): "ef523e2a30e70959f47ab39468f9b500f01665c92f603c06a9eb8272c3b2cad6",
    ("plus", "equal", "conjugate_transpose", True): "98eb10b9a43dc262e42815cae60ab95d500026536d54c364c63f1f1a82ef8df5",
    ("plus", "equal", "transpose", False): "80682f6dbd688f5de99c97a1095a231e6c9f1d588108ab67a10745b7cae670c6",
    ("plus", "equal", "transpose", True): "3fe5c8574fb4f357ef76a424262c8106c89b4ecc81d241f7c5909908b854688b",
    ("plus", "diagonal", "conjugate_transpose", False): "60d2dea6988c9105175573cd0b06f4c463f48c381074bbc7fb76280867574225",
    ("plus", "diagonal", "conjugate_transpose", True): "aebad52a394db020de1162b2eabc98b7f21549eefc06574df655fde678d84547",
    ("plus", "diagonal", "transpose", False): "6863aeffee6cae1108e2f796796378bf183d3a2167d6918faa4e78b1ff16df33",
    ("plus", "diagonal", "transpose", True): "6ce39de0d245cbe16c9ff89893269530b5daa919a08ad21cb0decc74332d2bd0",
    ("plus", "rejection", "conjugate_transpose", False): "6d699119732fef88034c4b26a8a8ce13615daa34c34a4f0e3d97e0aecc25867d",
    ("plus", "rejection", "conjugate_transpose", True): "af65f5a6666a90f2a82284c54f1d15388b23459f31592f46b8395c9d9f240723",
    ("plus", "rejection", "transpose", False): "6908b2ae8d1478ce285bf0b4a937f16f74d95ce26fe37a573e6b926a19d4add8",
    ("plus", "rejection", "transpose", True): "dbb3199477e4151a334e687c4acc76288724839be31b0101d69579682bf08583",
    ("sym_right", None, "conjugate_transpose", False): "0d80ade81460d8d1b8fa8c3904b3dc5cb35cb39a1c6f2c07c703e2d0bfc96d5b",
    ("sym_right", None, "conjugate_transpose", True): "695ce6faa74402829fd1ce49a6e85d765c930ff31bde18de2e22a32f08676b1f",
    ("sym_right", None, "transpose", False): "8075d3aa1b65e9d40a05cf8443afb7d22739830a2bda12e96c2b4c7f598c4ad1",
    ("sym_right", None, "transpose", True): "7e0a38ba74260e56fc81745f035d1e1642a522e2f1f124a3b4107aa075c18736",
    ("sym_left", None, "conjugate_transpose", False): "adb82f0460316af4125c8c031da82a78019d8b51994ba74e38546ec5bfc2dd74",
    ("sym_left", None, "conjugate_transpose", True): "638d2cd2a78c3b1f18d0737208c4d527eb01f71fe8af661e3371189dc260dd66",
    ("sym_left", None, "transpose", False): "fa6ce00bde2ee4e6c5f1932cb8b0f94f78574481ce4def3cc4a5a3b23b092ea5",
    ("sym_left", None, "transpose", True): "ed4cc4842428926550d5ffb9300d54a697ea1bf497f277d6ec4bfcdd528664ee",
    ("rect_minus", "coisometry", "conjugate_transpose", False): "bf2affbfb00200a13265233abb739a21c9f0be26faf44d512d8029184c232a84",
    ("rect_minus", "coisometry", "conjugate_transpose", True): "0dc6732c24404c6b85269a0416c685d36059fbb3c6405ac21ad45d5d38601bf1",
    ("rect_minus", "coisometry", "transpose", False): "cedd6fcf3e6d3b5eeeee4d6e30416a534f15fb7cff3b5e4c0f849079206c3217",
    ("rect_minus", "coisometry", "transpose", True): "557343c73e92515eb15d855f6c8bf89aeb89181577b1a6cbe9dde07e952aee9e",
    ("rect_minus", "diagonal", "conjugate_transpose", False): "cd96a0a1ccf90233c9189c73de2e7838907ceab6307e82a181d37cfc4605e034",
    ("rect_minus", "diagonal", "conjugate_transpose", True): "b5a534367d0f47e1b0c9b66ebe94e78a4a3916a10de31fc31484d8ea3ca108a2",
    ("rect_minus", "diagonal", "transpose", False): "176970292a8482c16340034ec3c8fa383bfe8e9ca160078d3b3903f821ba92ca",
    ("rect_minus", "diagonal", "transpose", True): "09320d1c1800132d892437a3a05c91a4b355f5e39a9df49b0eea005a9be9bc33",
    ("rect_minus", "rejection", "conjugate_transpose", False): "201f833ddc91ec143d647f046dcab3e296586fbe45eee3af63a9a627c50aca4b",
    ("rect_minus", "rejection", "conjugate_transpose", True): "14308516597fa342d1b44360a33c40fbc05dc24d862a68b3e9772afc04c09671",
    ("rect_minus", "rejection", "transpose", False): "51c5a9234769640e24cd07ab998c820f9abdbcd90980078f8f3d24ee67da3ce0",
    ("rect_minus", "rejection", "transpose", True): "a5a85a0f7538ceaa276d04dd0aeee0d752f43fd2e825fb9e1bea8712256f88e7",
    ("rect_plus", "coisometry", "conjugate_transpose", False): "2a9d3e376b2e230d31330bff5129d8b311457b983e8dcc5907df9c4af6b0f596",
    ("rect_plus", "coisometry", "conjugate_transpose", True): "d8a8acf294963edc21b1ac93e8b49ec4fad86449e76f809f555d5492e57bd1d7",
    ("rect_plus", "coisometry", "transpose", False): "9ff177469533cff25590c4991d4deaa84b58030cd4818499bc3ac2ab763af3d6",
    ("rect_plus", "coisometry", "transpose", True): "bf3a83f397b08590033864e94d65bce2b636314c9405eebcf7f44926ff308651",
    ("rect_plus", "diagonal", "conjugate_transpose", False): "64b2b6504168fc4b5555bc9e0ec5436c4caba9927c84b041db2d07d7601f4a3d",
    ("rect_plus", "diagonal", "conjugate_transpose", True): "976156223469768387e6853f0abfe8d708fe64ded257061328e6f01440b7afeb",
    ("rect_plus", "diagonal", "transpose", False): "ec5e6430ef89020cbd8dd330d4bd2b5ddfee8d30105bd06db3059524685f56ce",
    ("rect_plus", "diagonal", "transpose", True): "31deeb0a0097fc55bebb76d82d518a44cbfcce18699420377faff60be6f7823f",
    ("rect_plus", "rejection", "conjugate_transpose", False): "571cb622a614ac436a5e19103d52d566a3f8d239bf70f426b345d125b21d06db",
    ("rect_plus", "rejection", "conjugate_transpose", True): "d4f6d9cb3cf49d7711d76fca98ec56cfb36eb1936c0558c71400d268fd1dd817",
    ("rect_plus", "rejection", "transpose", False): "898400ddc855fa9531b0dc9925c477e69c8c6d5f4d8defa0f9d5ca9faedff207",
    ("rect_plus", "rejection", "transpose", True): "a6c89a7fb78abaa9b516229a9c9552edef7cc999899828f801e59dc4ab5d9eb7",
}


@pytest.mark.parametrize("case", sorted(GEN_SHA256, key=repr))
def test_gen_bytes_pinned(case, capsys):
    kind, family, involution, forced = case
    argv = ["gen", "--kind", kind, "--dims", "2,3,2" if kind in formats.RECT_KINDS else "2",
            "--seed", "7", "--involution", involution]
    argv += ["--family", family] if family else []
    argv += ["--force-solvable"] if forced else []
    assert run_main(*argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[case]


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
    formats.save_instance(formats.make_instance(inst.kind, tags.FLOAT, inst.involution,
                                                operands, inst.dims), str(path))


def check_report(path, *extra):
    out = path.parent / "check.json"
    assert run_main("check", "--input", str(path), "--output", str(out), *extra) == 0
    return json.loads(out.read_text())


def test_float_verdicts_are_scale_invariant(tmp_path):
    # Exact square and symmetric instances through to_float and scaled by
    # 10^k: every float verdict equals the exact one or the report says it is
    # too close to call.
    rng = random.Random(8)
    exact_path, float_path = tmp_path / "exact.json", tmp_path / "float.json"
    instances = []
    for i in range(32):
        sign = (MINUS, PLUS)[i % 2]
        family = ("unitary", "equal", "diagonal", "diagonal")[i % 4]
        involution = (tags.CONJUGATE_TRANSPOSE, tags.TRANSPOSE)[i // 16]
        force = (i // 4) % 2 == 0  # else a random c of the sign's symmetry
        a, b, c = random_square_instance(rng, sign, 3, family, force, involution)
        instances.append(formats.make_instance(sign, tags.EXACT, involution,
                                               {"a": a, "b": b, "c": c}))
    for i in range(32):
        side = ("right", "left")[i % 2]
        involution = (tags.CONJUGATE_TRANSPOSE, tags.TRANSPOSE)[i // 16]
        a, b = random_sym_instance(rng, side, 3, (i // 2) % 2 == 0, involution)
        instances.append(formats.make_instance("sym_" + side, tags.EXACT, involution,
                                               {"a": a, "b": b}))
    for i, inst in enumerate(instances):
        formats.save_instance(inst, str(exact_path))
        exact = check_report(exact_path)["verdict"]
        for k in (-12, -6, 0, 6, 12):
            write_scaled_float(float_path, inst, 10.0 ** k)
            report = check_report(float_path)
            assert report["verdict"] == exact or report["indeterminate"], (i, k)


def test_float_verdicts_hold_on_ill_conditioned_pairs(tmp_path, graded):
    # b = a = u diag(1, 2^-10, 2^-20) v with exact unitary u and v, and
    # c = h -/+ h*: the float verdict equals the exact one or is flagged, and
    # no instance is refused (exit 3).
    exact_path, float_path = tmp_path / "exact.json", tmp_path / "float.json"
    out = tmp_path / "check.json"
    judged = 0
    for seed in range(10):
        a = graded(3, 20, seed)
        h = random_matrix(random.Random(seed), 3, 3)
        for sign, c in ((MINUS, h.sub(h.star())), (PLUS, h.add(h.star()))):
            inst = formats.make_instance(sign, tags.EXACT, tags.CONJUGATE_TRANSPOSE,
                                         {"a": a, "b": a, "c": c})
            formats.save_instance(inst, str(exact_path))
            exact = check_report(exact_path)["verdict"]
            write_scaled_float(float_path, inst, 1.0)
            code = run_main("check", "--input", str(float_path), "--output", str(out))
            if code == 3:
                continue
            assert code == 0, (seed, sign)
            report = json.loads(out.read_text())
            assert report["verdict"] == exact or report["indeterminate"], (seed, sign)
            judged += 1
    assert judged == 20


@pytest.mark.parametrize("s", (20, 24))
def test_float_solve_on_graded_pairs(tmp_path, graded, s):
    # b = a of condition number 2^s and a solvable c = h -/+ h*: float solve
    # is never refused, its verdict equals the exact one or is flagged, and
    # verify accepts every sample it prints.
    exact_path, float_path = tmp_path / "exact.json", tmp_path / "float.json"
    out, sol_path = tmp_path / "solve.json", tmp_path / "x.json"
    for seed in range(10):
        a = graded(6, s, seed)
        h = random_matrix(random.Random(seed), 6, 6)
        for sign, c in ((MINUS, h.sub(h.star())), (PLUS, h.add(h.star()))):
            inst = formats.make_instance(sign, tags.EXACT, tags.CONJUGATE_TRANSPOSE,
                                         {"a": a, "b": a, "c": c})
            formats.save_instance(inst, str(exact_path))
            exact = check_report(exact_path)["verdict"]
            write_scaled_float(float_path, inst, 1.0)
            code = run_main("solve", "--input", str(float_path), "--samples", "2",
                            "--output", str(out))
            assert code != 3, (seed, sign)
            report = json.loads(out.read_text())
            assert report["verdict"] == exact or report["indeterminate"], (seed, sign)
            for sample in report.get("samples", []):
                x = parse.decode_matrix(sample["solution"], tags.FLOAT,
                                          tags.CONJUGATE_TRANSPOSE)
                formats.save_matrix(x, str(sol_path))
                assert run_main("verify", "--input", str(float_path),
                                "--solution", str(sol_path)) == 0, (seed, sign)


def test_scaled_float_solve_output_verifies_at_the_same_tol(tmp_path):
    # One equation-residual rule for solve's self-check and for verify: every
    # x0 and sample that solve prints at --tol T passes verify at --tol T with
    # the residual solve printed, bit for bit, and check agrees with solve on
    # the verdict; on both backends and involutions, the float instances
    # scaled by 1e-6.
    tol = ("--tol", "1e-12")
    exact_path, float_path = tmp_path / "exact.json", tmp_path / "float.json"
    sol_path, out = tmp_path / "x.json", tmp_path / "solve.json"
    solved = 0
    for kind, dims in (("minus", "3"), ("plus", "3"), ("sym_right", "3"), ("sym_left", "3"),
                       ("rect_minus", "2,3,2"), ("rect_plus", "2,2,3")):
        for involution, (seed, force) in itertools.product(
                tags.INVOLUTIONS, ((0, True), (1, True), (2, False))):
            argv = ["gen", "--kind", kind, "--seed", str(seed), "--dims", dims,
                    "--involution", involution, "--output", str(exact_path)]
            assert run_main(*argv, *(["--force-solvable"] if force else [])) == 0
            write_scaled_float(float_path, formats.load_instance(str(exact_path)), 1e-6)
            for backend, path in ((tags.EXACT, exact_path), (tags.FLOAT, float_path)):
                case = (kind, involution, seed, backend)
                code = run_main("solve", "--input", str(path), "--samples", "2",
                                "--output", str(out), *tol)
                doc = json.loads(out.read_text())
                assert check_report(path, *tol)["verdict"] == doc["verdict"], case
                if force:
                    assert code == 0, case
                if code != 0:
                    continue
                solved += 1
                printed = [(doc["x0"], doc["residual_max_abs"])]
                printed += [(s["solution"], s["residual_max_abs"]) for s in doc["samples"]]
                for raw, residual_max in printed:
                    formats.save_matrix(parse.decode_matrix(raw, backend, involution),
                                        str(sol_path))
                    assert run_main("verify", "--input", str(path), "--solution",
                                    str(sol_path), "--output", str(out), *tol) == 0, case
                    verified = json.loads(out.read_text())["residual_max_abs"]
                    assert verified.hex() == residual_max.hex(), case
    assert solved >= 48


# -- start-up imports -----------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# what a CLI child may load only for some subcommands, or never: exact values
# stay integer grids from file to file, so no child needs the per-entry
# scalars (and fractions, decimal, numbers), and no module needs __future__
WATCHED = ("starsolve.oracle", "starsolve.certify", "starsolve.generate", "starsolve.structured",
           "starsolve.draws", "starsolve.rect", "starsolve.commands", "starsolve.verdicts",
           "starsolve.penrose", "starsolve.parse", "starsolve.quadruples", "starsolve.solvers",
           "starsolve.elimination", "starsolve.floats", "starsolve.orthogonal",
           "starsolve.floattext", "starsolve.scalars", "fractions", "decimal", "numbers",
           "__future__", "dataclasses", "inspect", "datetime", "random")

STARTUP_CHILD = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import starsolve.cli
for argv in json.loads(sys.argv[1]):
    assert starsolve.cli.main(argv) == int(sys.argv[3]), argv
print(json.dumps([m for m in json.loads(sys.argv[2]) if m in sys.modules]))
"""


SAVING_CHILD = f"""
import json, random, sys
sys.path.insert(0, {str(SRC)!r})
from starsolve import formats
from starsolve.draws import random_matrix
backend, folder = sys.argv[1:]
m = random_matrix(random.Random(1), 3, 3, backend)
loaded = []
formats.save_matrix(m, folder + "/saved_matrix.json")
loaded.append("starsolve.floattext" in sys.modules)
inst = formats.make_instance("minus", backend, m.involution, {{"a": m, "b": m, "c": m}})
formats.save_instance(inst, folder + "/saved_instance.json")
loaded.append("starsolve.floattext" in sys.modules)
print(json.dumps(loaded))
"""


def loaded_by(runs, watched=WATCHED, code=0) -> list:
    """The ``watched`` modules loaded by a fresh child that runs each argv,
    each of which exits with ``code``."""
    # -S: no site hooks, so only what the package itself imports is loaded
    r = subprocess.run([sys.executable, "-S", "-c", STARTUP_CHILD, json.dumps(runs),
                        json.dumps(watched), str(code)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def cli_files(tmp_path, backend) -> tuple:
    """Paths of a solvable minus instance on ``backend``, of its operand a as
    a matrix file, and of its x0 as a solution file."""
    a, b, c = random_square_instance(random.Random(3), MINUS, 3, "unitary")
    ops = {"a": a, "b": b, "c": c}
    if backend == tags.FLOAT:
        ops = {name: m.to_float() for name, m in ops.items()}
    paths = tuple(str(tmp_path / f"{backend}_{name}.json") for name in ("inst", "a", "x"))
    formats.save_instance(formats.make_instance("minus", backend, a.involution, ops, None, 3),
                          paths[0])
    formats.save_matrix(ops["a"], paths[1])
    formats.save_matrix(solve(MatrixRing(3, backend), MINUS, *ops.values()).x0, paths[2])
    return paths


def test_cli_start_up_leaves_the_oracle_unloaded(tmp_path):
    out = ["--output", str(tmp_path / "out.json")]
    assert loaded_by([]) == []
    for backend in tags.BACKENDS:
        inst, a, x = cli_files(tmp_path, backend)
        # an exact run reads and writes quadruples and inverts by elimination; a
        # float run computes in the float arithmetic and inverts by decomposition
        exact = backend == tags.EXACT
        codec = {"starsolve.quadruples"} if exact else set()
        arithmetic = set() if exact else {"starsolve.floats"}
        inverse = {"starsolve.elimination"} if exact else {"starsolve.orthogonal"}
        reading = {"starsolve.parse"} | codec | arithmetic
        # only a run that writes a float matrix (mp's inverse, solve's
        # solutions, gen's operands) builds a float matrix's text
        text = set() if exact else {"starsolve.floattext"}
        # mp runs no solver, only the Penrose checks
        assert set(loaded_by([["mp", "--input", a, *out]])) == (
            reading | inverse | {"starsolve.commands", "starsolve.penrose"} | text), backend
        # check and solve need the verdict code; only solve draws samples
        verdict = reading | inverse | {"starsolve.verdicts", "starsolve.solvers"}
        assert set(loaded_by([["check", "--input", inst, *out]])) == verdict, backend
        assert set(loaded_by([["solve", "--input", inst, *out]])) == (
            verdict | {"starsolve.draws", "random"} | text), backend
        # verify inverts nothing
        assert set(loaded_by([["verify", "--input", inst, "--solution", x, *out]])) == (
            reading | {"starsolve.commands", "starsolve.solvers"}), backend
        # gen needs the generators (and RectProblem), not the elimination or the
        # reading; it draws exact values and converts them, so it computes with
        # no floats
        assert set(loaded_by([["gen", "--kind", "minus", "--backend", backend, *out]])) == {
            "starsolve.generate", "starsolve.structured", "starsolve.draws", "starsolve.rect",
            "starsolve.solvers", "random"} | codec | text, backend
    # a float solve that prints no solution: unsolvable (exit 4), or the
    # hypotheses fail (exit 5)
    unsolvable, failing = tmp_path / "unsolvable.json", tmp_path / "failing.json"
    assert run_main("gen", "--kind", "minus", "--family", "diagonal", "--dims", "3", "--seed",
                    "1", "--backend", tags.FLOAT, "--output", str(unsolvable)) == 0
    fail = formats.load_instance(str(GOLDEN / "diag_fail.json"))
    formats.save_instance(formats.make_instance(
        fail.kind, tags.FLOAT, fail.involution,
        {name: m.to_float() for name, m in fail.operands.items()}), str(failing))
    for path, code in ((unsolvable, 4), (failing, 5)):
        assert set(loaded_by([["solve", "--input", str(path), *out]], code=code)) == {
            "starsolve.parse", "starsolve.floats", "starsolve.orthogonal",
            "starsolve.verdicts", "starsolve.solvers"}, code
    # writing in process: an exact matrix or instance file never loads the
    # float text writer, a float one does
    for backend in tags.BACKENDS:
        r = subprocess.run([sys.executable, "-S", "-c", SAVING_CHILD, backend, str(tmp_path)],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == [backend == tags.FLOAT] * 2, backend
    # solve --oracle needs the certificate, not the oracle
    inst = str(GOLDEN / "scalar_minus.json")  # solvable
    assert set(loaded_by([["solve", "--input", inst, "--oracle", *out]])) == {
        "starsolve.certify", "starsolve.verdicts", "starsolve.parse",
        "starsolve.quadruples", "starsolve.solvers", "starsolve.elimination",
        "starsolve.draws", "random"}


FRACTION_CHILD = f"""
import fractions, json, sys
sys.path.insert(0, {str(SRC)!r})
made = 0
construct = fractions.Fraction.__new__


def counting(cls, *args, **kwargs):
    global made
    made += 1
    return construct(cls, *args, **kwargs)


fractions.Fraction.__new__ = counting
import starsolve.cli
for argv in json.loads(sys.argv[1]):
    assert starsolve.cli.main(argv) == 0, argv
during = made
fractions.Fraction(1, 3)  # the counter counts
print(json.dumps([during, made]))
"""


def test_exact_cli_runs_construct_no_fraction(tmp_path):
    out = ["--output", str(tmp_path / "out.json")]
    inst, a, x = cli_files(tmp_path, tags.EXACT)
    runs = [["check", "--input", inst, *out],
            ["solve", "--input", inst, "--samples", "3", "--oracle", *out],
            ["mp", "--input", a, *out], ["verify", "--input", inst, "--solution", x, *out],
            ["gen", "--kind", "minus", "--family", "diagonal", "--dims", "3", *out],
            ["gen", "--kind", "rect_plus", "--family", "diagonal", "--dims", "2,3,2", *out]]
    r = subprocess.run([sys.executable, "-S", "-c", FRACTION_CHILD, json.dumps(runs)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.splitlines()[-1]) == [0, 1]


ARITHMETIC = {tags.EXACT: ("starsolve.grids", "starsolve.quadruples", "starsolve.elimination"),
              tags.FLOAT: ("starsolve.floats", "starsolve.orthogonal")}


@pytest.mark.parametrize("backend", tags.BACKENDS)
def test_runs_leave_the_other_arithmetic_unloaded(tmp_path, backend):
    out = ["--output", str(tmp_path / "out.json")]
    inst, a, x = cli_files(tmp_path, backend)
    runs = [["check", "--input", inst, *out], ["solve", "--input", inst, *out],
            ["mp", "--input", a, *out], ["verify", "--input", inst, "--solution", x, *out]]
    assert loaded_by(runs, sum(ARITHMETIC.values(), ())) == list(ARITHMETIC[backend])


# -- compile size per child -----------------------------------------------------

# With no .pyc files, as the benchmark runs, a CLI child compiles every
# starsolve module it loads, and its peak memory follows the largest one.
MAX_MODULE_TOKENS = 2_000
# each module under src/starsolve/, by the name it has in sys.modules
MODULE_FILES = {("starsolve" if path.stem == "__init__" else f"starsolve.{path.stem}"): path
                for path in sorted((SRC / "starsolve").glob("*.py"))}


def token_count(source: str) -> int:
    """Tokens of Python source as Python 3.11's ``tokenize`` counts them.
    From 3.12 on, ``tokenize`` splits an f-string into FSTRING_START ...
    FSTRING_END; that run counts as one token here, as 3.11's one STRING."""
    start, end = getattr(tokenize, "FSTRING_START", None), getattr(tokenize, "FSTRING_END", None)
    count = depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == start:
            count += not depth
            depth += 1
        elif tok.type == end:
            depth -= 1
        elif not depth:
            count += 1
    return count


def test_token_count_counts_an_f_string_as_one_token():
    # x = <f-string> + "s" NEWLINE ENDMARKER, on every Python version
    assert token_count('x = f"{a!r} and {f\'{b}\'}" + "s"\n') == 7


def test_no_cli_child_compiles_a_module_over_the_ceiling(tmp_path):
    out = ["--output", str(tmp_path / "out.json")]
    runs = [["gen", "--kind", kind, *dims, *backend, *out]
            for kind, dims in (("minus", ()), ("rect_plus", ("--dims", "2,3,2")), ("sym_left", ()),
                               ("plus", ("--family", "rejection")))
            for backend in ((), ("--backend", tags.FLOAT))]
    for backend in tags.BACKENDS:
        inst, a, x = cli_files(tmp_path, backend)
        runs += [["check", "--input", inst, *out], ["solve", "--input", inst, *out],
                 ["mp", "--input", a, *out], ["verify", "--input", inst, "--solution", x, *out]]
    runs.append(["solve", "--input", str(GOLDEN / "scalar_minus.json"), "--oracle", *out])
    tokens = {name: token_count(path.read_text()) for name, path in MODULE_FILES.items()}
    over = {}  # each module over the ceiling: the first run that compiles it
    for argv in runs:
        loaded = loaded_by([argv], tuple(MODULE_FILES))
        assert "starsolve.cli" in loaded, argv
        for name in loaded:
            if tokens[name] > MAX_MODULE_TOKENS:
                over.setdefault(f"{name}: {tokens[name]} tokens", " ".join(argv[:3]))
    assert over == {}, f"CLI children compile modules over {MAX_MODULE_TOKENS} tokens"


def test_generated_at_is_a_utc_timestamp(capsys):
    # every report carries the same envelope
    inst = str(GOLDEN / "rect_minus.json")
    for argv in (("mp", "--input", str(GOLDEN / "mp_input.json")),
                 ("check", "--input", inst),
                 ("solve", "--input", inst),
                 ("verify", "--input", inst, "--solution", str(GOLDEN / "rect_solution.json"))):
        assert run_main(*argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == formats.FORMAT_VERSION and doc["command"] == argv[0]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", doc["generated_at"])


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
    # exits 4 and 5 of a child: the exit code, the report file and the
    # summary lines all get out of a process that ends with a frozen collector
    for name in ("diag_unsolvable_solve", "diag_fail_solve"):
        gen_argv, (command, *flags), code = VERDICT_GOLDENS[name]
        inst = GOLDEN / "diag_fail.json"
        if gen_argv:
            inst = tmp_path / f"{name}_inst.json"
            assert run_main("gen", *gen_argv, "--output", str(inst)) == 0
        out = tmp_path / f"{name}.json"
        r = subprocess.run([sys.executable, "-m", "starsolve.cli", command, "--input", str(inst),
                            *flags, "--output", str(out)], capture_output=True, text=True)
        assert r.returncode == code, r.stderr
        assert r.stdout.endswith(f"report written to {out}\n")
        assert normalized(out) == (GOLDEN / f"{name}_report.json").read_text()


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["starsolve"]
    assert EntryPoint("starsolve", target, "console_scripts").load() is run


# the benchmark's CLI child (`python -m starsolve.cli`, by runpy), with an
# atexit hook that reports the collector as interpreter shutdown finds it
FROZEN_CHILD = f"""
import atexit, gc, runpy, sys
sys.path.insert(0, {str(SRC)!r})
atexit.register(lambda: print("frozen", gc.get_freeze_count(), gc.isenabled()))
runpy.run_module("starsolve.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", [
    (["check", "--input", str(GOLDEN / "scalar_minus.json")], 0),
    (["solve", "--input", str(GOLDEN / "diag_fail.json")], 5),
    (["solve", "--samples"], 2),  # argparse's own exit
])
def test_cli_process_ends_with_the_collector_frozen(argv, code):
    r = subprocess.run([sys.executable, "-c", FROZEN_CHILD, *argv],
                       capture_output=True, text=True)
    assert r.returncode == code, r.stderr
    word, count, enabled = r.stdout.splitlines()[-1].split()
    assert (word, int(count) > 0, enabled) == ("frozen", True, "True")


def test_main_leaves_the_collector_alone(tmp_path):
    out = ["--output", str(tmp_path / "out.json")]
    inst, a, x = cli_files(tmp_path, tags.EXACT)
    before = gc.isenabled(), gc.get_freeze_count()
    for argv in (["gen", "--kind", "minus", *out], ["check", "--input", inst, *out],
                 ["solve", "--input", inst, "--oracle", *out], ["mp", "--input", a, *out],
                 ["verify", "--input", inst, "--solution", x, *out]):
        assert main(argv) == 0, argv
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv


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
