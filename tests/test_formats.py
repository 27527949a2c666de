import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve import formats, parse
from starsolve.draws import random_matrix
from starsolve.formats import FormatError, instance_to_doc, matrix_to_doc
from starsolve.generate import (random_rect_instance, random_sym_instance,
                                random_square_instance)
from starsolve.matrix import Matrix, unchecked
from starsolve.parse import instance_from_doc, matrix_from_doc
from starsolve.scalars import GaussianRational
from starsolve.tags import CONJUGATE_TRANSPOSE, EXACT, FLOAT, TRANSPOSE

seeds = st.integers(min_value=0, max_value=10**6)
backends = st.sampled_from((EXACT, FLOAT))
involutions = st.sampled_from((CONJUGATE_TRANSPOSE, TRANSPOSE))


def build_instance(seed, kind, backend, involution):
    rng = random.Random(seed)
    if kind in ("minus", "plus"):
        a, b, c = random_square_instance(rng, kind, 2, "unitary", True,
                                         involution)
        operands, dims = {"a": a, "b": b, "c": c}, None
    elif kind in ("sym_right", "sym_left"):
        side = kind.split("_")[1]
        a, b = random_sym_instance(rng, side, 2, True, involution)
        operands, dims = {"a": a, "b": b}, None
    else:
        sign = "minus" if kind == "rect_minus" else "plus"
        prob = random_rect_instance(rng, (1, 2, 2), "diagonal", True,
                                    involution, sign)
        operands, dims = {"a": prob.a, "b": prob.b, "c": prob.c}, (1, 2, 2)
    if backend == FLOAT:
        operands = {k: m.to_float() for k, m in operands.items()}
    return formats.make_instance(kind, backend, involution, operands, dims,
                                 seed)


# -- scalar encoding ----------------------------------------------------------


def test_exact_scalar_quadruple():
    z = GaussianRational(Fraction(-3, 4), Fraction(5, 2))
    assert formats.encode_scalar(z, EXACT) == ["-3", "4", "5", "2"]
    assert parse.decode_scalar(["-3", "4", "5", "2"], EXACT) == z


def test_exact_scalar_normalizes_on_decode():
    z = parse.decode_scalar(["2", "4", "0", "1"], EXACT)
    assert z == GaussianRational(Fraction(1, 2), Fraction(0))


def test_float_scalar_pair():
    assert parse.decode_scalar([1.5, -2.0], FLOAT) == 1.5 - 2j
    assert formats.encode_scalar(1.5 - 2j, FLOAT) == [1.5, -2.0]


@pytest.mark.parametrize("raw", [
    ["1", "0", "0", "1"],      # zero denominator
    ["1_0", "1", "0", "1"],    # underscore sneaks past int()
    [" 1", "1", "0", "1"],     # whitespace
    ["1", "1", "0"],           # wrong arity
    ["0x2", "1", "0", "1"],    # non-decimal
    [1, 1, 0, 1],              # numbers where strings belong
    ["7\n", "2", "0", "1"],     # a regex $ matches before a final newline
])
def test_exact_scalar_rejects_malformed(raw):
    with pytest.raises(FormatError):
        parse.decode_scalar(raw, EXACT)


@pytest.mark.parametrize("raw", [[float("inf"), 0.0], [0.0], ["1", 0.0],
                                 [True, 0.0],
                                 [1.7e308, 1.7e308]])  # finite parts, modulus overflows
def test_float_scalar_rejects_malformed(raw):
    with pytest.raises(FormatError):
        parse.decode_scalar(raw, FLOAT)


@pytest.mark.parametrize("decode", [
    lambda backend: parse.decode_scalar(["1", "1", "0", "1"], backend),
    lambda backend: parse.decode_matrix([[["1", "1", "0", "1"]]], backend,
                                          CONJUGATE_TRANSPOSE),
], ids=["decode_scalar", "decode_matrix"])
def test_decoders_refuse_an_unknown_backend(decode):
    with pytest.raises(FormatError, match="backend must be one of"):
        decode("bogus")


def test_huge_integers_survive():
    big = Fraction(10**40 + 1, 10**39)
    z = GaussianRational(big, Fraction(0))
    raw = formats.encode_scalar(z, EXACT)
    assert parse.decode_scalar(raw, EXACT) == z


# -- matrix documents -----------------------------------------------------------


def test_matrix_doc_roundtrip():
    m = random_matrix(random.Random(1), 2, 3)
    doc = json.loads(formats.dumps_doc(matrix_to_doc(m)))
    assert matrix_from_doc(doc) == m
    assert doc["type"] == "matrix"


def test_matrix_doc_rejects_ragged_rows():
    doc = json.loads(formats.dumps_doc(matrix_to_doc(Matrix.exact([[1, 2], [3, 4]]))))
    doc["matrix"][1] = doc["matrix"][1][:1]
    with pytest.raises(FormatError):
        matrix_from_doc(doc)


def test_matrix_doc_rejects_transpose_with_imaginary_entry():
    doc = {"version": "1", "type": "matrix", "backend": "exact",
           "involution": "transpose", "matrix": [[["0", "1", "1", "1"]]]}
    with pytest.raises(FormatError):
        matrix_from_doc(doc)


# -- the grid route against the per-entry route ------------------------------------

# parts of num / den: small ones (zero among them), a shared factor k to keep
# the terms from being lowest, and parts around 10^400; denominators of both signs
small_parts = st.tuples(st.integers(-12, 12), st.integers(-12, 12).filter(bool),
                        st.integers(1, 6)).map(lambda t: (t[0] * t[2], t[1] * t[2]))
big = st.one_of(st.integers(10**400 - 10**6, 10**400 + 10**6),
                st.integers(-10**401, 10**401))
big_parts = st.tuples(big, st.one_of(big.filter(bool), st.integers(-12, 12).filter(bool)))
quadruples = st.tuples(st.one_of(small_parts, big_parts),
                       st.one_of(small_parts, st.just((0, 1)), st.just((0, -7)), big_parts)
                       ).map(lambda t: [str(t[0][0]), str(t[0][1]), str(t[1][0]), str(t[1][1])])
raw_matrices = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(st.lists(quadruples, min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0]))


def per_entry_route(raw, involution):
    """A GaussianRational per entry, then Matrix.exact; its ValueError as
    decode_matrix words a FormatError."""
    grid = [[parse.decode_scalar(e, EXACT) for e in row] for row in raw]
    try:
        return Matrix.exact(grid, involution)
    except ValueError as exc:
        return f"matrix: {exc}"


@given(raw_matrices, involutions)
@settings(max_examples=150, deadline=None)
def test_grid_decode_and_encode_match_the_per_entry_route(raw, involution):
    expected = per_entry_route(raw, involution)
    if isinstance(expected, str):  # transpose with a nonzero imaginary part
        with pytest.raises(FormatError) as info:
            parse.decode_matrix(raw, EXACT, involution)
        assert str(info.value) == expected == "matrix: transpose involution requires all-real entries"
        return
    m = parse.decode_matrix(raw, EXACT, involution)
    assert m == expected and m.grids == expected.grids
    assert m.entries == expected.entries
    encoded = formats.encode_matrix(m)
    assert encoded == [[formats.encode_scalar(e, EXACT) for e in row] for row in expected.entries]
    assert parse.decode_matrix(encoded, EXACT, involution) == m


# -- instance documents -----------------------------------------------------------


@given(seeds, st.sampled_from(formats.KINDS), backends, involutions)
@settings(max_examples=40, deadline=None)
def test_instance_roundtrip_is_identity(seed, kind, backend, involution):
    inst = build_instance(seed, kind, backend, involution)
    doc = instance_to_doc(inst)
    back = instance_from_doc(doc)
    assert back.kind == inst.kind
    assert back.backend == inst.backend
    assert back.involution == inst.involution
    assert back.dims == inst.dims
    assert back.seed == inst.seed
    for name in inst.operands:
        assert back.operands[name].entries == inst.operands[name].entries
    # serialize(parse(serialize(x))) is byte-identical
    assert formats.dumps_doc(instance_to_doc(back)) == formats.dumps_doc(doc)


def test_instance_doc_is_valid_json_with_trailing_newline():
    inst = build_instance(0, "minus", EXACT, CONJUGATE_TRANSPOSE)
    text = formats.dumps_doc(instance_to_doc(inst))
    assert text.endswith("\n")
    json.loads(text)


def base_doc():
    inst = build_instance(7, "rect_minus", EXACT, CONJUGATE_TRANSPOSE)
    return instance_to_doc(inst)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(version="0"),
    lambda d: d.update(kind="sideways"),
    lambda d: d.update(backend="decimal"),
    lambda d: d.update(involution="adjoint"),
    lambda d: d.update(surprise=True),
    lambda d: d.pop("operands"),
    lambda d: d.pop("dims"),
    lambda d: d["operands"].pop("c"),
    lambda d: d["operands"].update(x=[[["1", "1", "0", "1"]]]),
    lambda d: d.update(dims=[1, 2]),
    lambda d: d.update(dims=[1, 2, 0]),
    lambda d: d.update(seed="zero"),
    lambda d: d.update(seed=True),
])
def test_instance_doc_strictness(mutate):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(FormatError):
        instance_from_doc(doc)


@pytest.mark.parametrize("mutate, got", [
    (lambda ops: ops.pop("c"), ('a', 'b')),
    (lambda ops: ops.update(x=ops["a"]), ('a', 'b', 'c', 'x')),
])
def test_missing_or_extra_operand_gets_the_one_message(mutate, got):
    doc = base_doc()
    mutate(doc["operands"])
    with pytest.raises(FormatError) as info:
        instance_from_doc(doc)
    assert str(info.value) == f"kind 'rect_minus' needs operands ('a', 'b', 'c'), got {got}"


def counting(monkeypatch, owner, name):
    """Calls to ``owner.name`` from here on, as a list of their arguments."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_a_float_instance_file_checks_each_entry_once(monkeypatch, tmp_path):
    path = tmp_path / "inst.json"
    formats.save_instance(build_instance(3, "minus", FLOAT, CONJUGATE_TRANSPOSE), str(path))
    finite = counting(monkeypatch, math, "isfinite")
    inst = formats.load_instance(str(path))
    assert len(finite) == sum(m.rows * m.cols for m in inst.operands.values()) == 12


def test_load_instance_validates_once(monkeypatch, tmp_path):
    path = tmp_path / "inst.json"
    formats.save_instance(build_instance(3, "rect_plus", EXACT, TRANSPOSE), str(path))
    validations = counting(monkeypatch, formats, "_validate_instance")
    inst = formats.load_instance(str(path))
    assert validations == [(inst,)]


def test_dims_on_square_kind_rejected():
    inst = build_instance(3, "minus", EXACT, CONJUGATE_TRANSPOSE)
    doc = instance_to_doc(inst)
    doc["dims"] = [2, 2, 2]
    with pytest.raises(FormatError):
        instance_from_doc(doc)


def test_operand_shape_mismatch_rejected():
    doc = base_doc()
    doc["operands"]["c"] = doc["operands"]["a"]  # c must be m x m
    with pytest.raises(FormatError):
        instance_from_doc(doc)


def test_mixed_backend_operand_rejected():
    inst = build_instance(5, "minus", EXACT, CONJUGATE_TRANSPOSE)
    bad_ops = dict(inst.operands)
    bad_ops["c"] = bad_ops["c"].to_float()
    with pytest.raises(FormatError):
        formats.make_instance("minus", EXACT, CONJUGATE_TRANSPOSE, bad_ops)


def test_sign_property():
    assert build_instance(1, "minus", EXACT, CONJUGATE_TRANSPOSE).sign == "minus"
    assert build_instance(1, "plus", EXACT, CONJUGATE_TRANSPOSE).sign == "plus"
    assert build_instance(1, "sym_left", EXACT, CONJUGATE_TRANSPOSE).sign == "plus"
    assert build_instance(1, "rect_plus", EXACT, CONJUGATE_TRANSPOSE).sign == "plus"


def test_sign_of_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="kind must be one of"):
        formats.sign_of("bogus")


def test_file_helpers_roundtrip(tmp_path):
    inst = build_instance(11, "sym_right", EXACT, CONJUGATE_TRANSPOSE)
    path = tmp_path / "inst.json"
    formats.save_instance(inst, str(path))
    back = formats.load_instance(str(path))
    assert back.kind == "sym_right"
    mpath = tmp_path / "m.json"
    m = inst.operands["a"]
    formats.save_matrix(m, str(mpath))
    assert formats.load_matrix(str(mpath)) == m


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    with pytest.raises(FormatError):
        formats.load_instance(str(path))


@pytest.mark.parametrize("kind", ("minus", "sym_left"))
def test_square_kinds_take_the_rect_shape_rule(kind):
    inst = build_instance(3, kind, EXACT, CONJUGATE_TRANSPOSE)
    n = inst.operands["a"].rows
    doc = instance_to_doc(inst)
    doc["operands"]["b"] = [row + [["0", "1", "0", "1"]] for row in doc["operands"]["b"]]
    with pytest.raises(FormatError, match=rf"'b' must have shape \({n}, {n}\) "
                                          rf"for dims \({n}, {n}, {n}\)"):
        instance_from_doc(doc)


def test_write_doc_keeps_the_file_when_serializing_fails(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("previous report\n")
    # a NaN field, and a float matrix whose entry overflowed in arithmetic
    # (which builds it unchecked), met only as the encoder reaches it
    overflowed = unchecked(1, 1, CONJUGATE_TRANSPOSE, FLOAT, ((complex(1e308 * 10, 0),),))
    for doc in ({"residual_max_abs": float("nan")}, {"x0": overflowed}):
        with pytest.raises(ValueError):
            formats.write_doc(doc, str(path))
        assert path.read_text() == "previous report\n"


@pytest.mark.parametrize("part", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("where", ("x0", "sample solution", "instance operand"))
def test_write_doc_keeps_the_file_when_a_float_matrix_is_not_finite(tmp_path, where, part):
    path = tmp_path / "doc.json"
    path.write_text("previous report\n")
    ok = Matrix.floating([[1.5, 2j], [0.25, -1.0]])
    bad = unchecked(2, 2, CONJUGATE_TRANSPOSE, FLOAT, ((1.5, complex(0.5, part)), (0.25, -1.0)))
    samples = [{"seed": 0, "solution": ok}, {"seed": 1, "solution": bad}]
    with pytest.raises(ValueError):
        if where == "instance operand":
            formats.save_instance(formats.Instance("minus", FLOAT, CONJUGATE_TRANSPOSE,
                                                   {"a": ok, "b": ok, "c": bad}), str(path))
        elif where == "x0":
            formats.write_doc({"x0": bad, "samples": []}, str(path))
        else:
            formats.write_doc({"x0": ok, "samples": samples}, str(path))
    assert path.read_text() == "previous report\n"


def _encoded(value):
    """``value`` with each Matrix in it replaced by ``encode_matrix`` of it."""
    if isinstance(value, Matrix):
        return formats.encode_matrix(value)
    if isinstance(value, dict):
        return {key: _encoded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_encoded(item) for item in value]
    return value


@pytest.mark.parametrize("backend", (EXACT, FLOAT))
@pytest.mark.parametrize("involution", (CONJUGATE_TRANSPOSE, TRANSPOSE))
def test_dumps_doc_equals_json_dumps_of_the_encoded_matrices(backend, involution):
    rng = random.Random(5)

    def m(rows, cols):
        return random_matrix(rng, rows, cols, backend, involution)

    doc = {"x0": m(2, 3), "tolerance": None, "verified": True, "residual_max_abs": 1.5e-12,
           "samples": [{"seed": 0, "solution": m(3, 3)}, m(1, 1), []],
           "nested": {"deeper": {"z": m(2, 2), "a": "text \u00fc"}, "empty": {}},
           "large": m(12, 12)}  # more chunks than one batch joins
    for value in (doc, m(2, 2), [], {}):
        expected = json.dumps(_encoded(value), sort_keys=True, indent=2, allow_nan=False)
        assert formats.dumps_doc(value) == expected + "\n"


EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.0, 0.1,
              1e16, 1e-7, -2.5)


def _float_matrix(rows, cols, involution=CONJUGATE_TRANSPOSE):
    """A rows x cols float matrix whose parts walk through EDGE_PARTS."""
    parts = iter(EDGE_PARTS * (2 * rows * cols))
    imaginary = involution == CONJUGATE_TRANSPOSE
    return Matrix(rows, cols, [[complex(next(parts), next(parts) if imaginary else 0.0)
                                for _ in range(cols)] for _ in range(rows)], involution, FLOAT)


def test_float_matrices_are_written_as_json_writes_their_lists():
    shapes = [_float_matrix(r, c) for r, c in ((1, 1), (1, 16), (16, 1), (0, 3), (3, 0), (4, 3))]
    real = _float_matrix(3, 2, TRANSPOSE)
    exact = random_matrix(random.Random(2), 2, 2)
    docs = [*shapes, real, {"x0": shapes[3], "mp_inverse": shapes[5], "exact": exact},
            [shapes[0], [shapes[4], exact], "\0", real],
            {"samples": [{"seed": 0, "solution": shapes[5]}, {"seed": 1, "solution": real}],
             "x0": shapes[2], "nested": {"deeper": {"z": shapes[1]}}},
            # strings that begin with NUL, beside, before and as keys of matrices
            {"\0": shapes[0], "\0a": "\0", "a": ["\0", shapes[1], "\0\0"], "b": "\0x"},
            [shapes[2], "\u0000", {"\0": "\0"}, shapes[0]]]
    for doc in docs:
        expected = json.dumps(_encoded(doc), sort_keys=True, indent=2, allow_nan=False)
        assert formats.dumps_doc(doc) == expected + "\n"


def test_dumps_doc_refuses_an_unknown_type_as_json_does():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        formats.dumps_doc({"x": object()})
