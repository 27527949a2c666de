import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starsolve import formats
from starsolve.formats import (FormatError, instance_from_doc, instance_to_doc,
                               matrix_from_doc, matrix_to_doc)
from starsolve.generate import (random_rect_instance, random_sym_instance,
                                random_square_instance)
from starsolve.matrix import (CONJUGATE_TRANSPOSE, EXACT, FLOAT, TRANSPOSE,
                              Matrix, random_matrix)
from starsolve.scalars import GaussianRational

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
    assert formats.decode_scalar(["-3", "4", "5", "2"], EXACT) == z


def test_exact_scalar_normalizes_on_decode():
    z = formats.decode_scalar(["2", "4", "0", "1"], EXACT)
    assert z == GaussianRational(Fraction(1, 2), Fraction(0))


def test_float_scalar_pair():
    assert formats.decode_scalar([1.5, -2.0], FLOAT) == 1.5 - 2j
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
        formats.decode_scalar(raw, EXACT)


@pytest.mark.parametrize("raw", [[float("inf"), 0.0], [0.0], ["1", 0.0],
                                 [True, 0.0]])
def test_float_scalar_rejects_malformed(raw):
    with pytest.raises(FormatError):
        formats.decode_scalar(raw, FLOAT)


def test_huge_integers_survive():
    big = Fraction(10**40 + 1, 10**39)
    z = GaussianRational(big, Fraction(0))
    raw = formats.encode_scalar(z, EXACT)
    assert formats.decode_scalar(raw, EXACT) == z


# -- matrix documents -----------------------------------------------------------


def test_matrix_doc_roundtrip():
    m = random_matrix(random.Random(1), 2, 3)
    doc = matrix_to_doc(m)
    assert matrix_from_doc(doc).equals(m)
    assert doc["type"] == "matrix"


def test_matrix_doc_rejects_ragged_rows():
    doc = matrix_to_doc(Matrix.exact([[1, 2], [3, 4]]))
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
    grid = [[formats.decode_scalar(e, EXACT) for e in row] for row in raw]
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
            formats.decode_matrix(raw, EXACT, involution)
        assert str(info.value) == expected == "matrix: transpose involution requires all-real entries"
        return
    m = formats.decode_matrix(raw, EXACT, involution)
    assert m == expected and m.grids == expected.grids
    assert m.entries == expected.entries
    encoded = formats.encode_matrix(m)
    assert encoded == [[formats.encode_scalar(e, EXACT) for e in row] for row in expected.entries]
    assert formats.decode_matrix(encoded, EXACT, involution) == m


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


def test_file_helpers_roundtrip(tmp_path):
    inst = build_instance(11, "sym_right", EXACT, CONJUGATE_TRANSPOSE)
    path = tmp_path / "inst.json"
    formats.save_instance(inst, str(path))
    back = formats.load_instance(str(path))
    assert back.kind == "sym_right"
    mpath = tmp_path / "m.json"
    m = inst.operands["a"]
    formats.save_matrix(m, str(mpath))
    assert formats.load_matrix(str(mpath)).equals(m)


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{]")
    with pytest.raises(FormatError):
        formats.load_instance(str(path))


@pytest.mark.parametrize("kind", ("minus", "sym_left"))
def test_square_kinds_take_the_rect_shape_rule(kind):
    inst = build_instance(3, kind, EXACT, CONJUGATE_TRANSPOSE)
    n = inst.size
    doc = instance_to_doc(inst)
    doc["operands"]["b"] = [row + [["0", "1", "0", "1"]] for row in doc["operands"]["b"]]
    with pytest.raises(FormatError, match=rf"'b' must have shape \({n}, {n}\) "
                                          rf"for dims \({n}, {n}, {n}\)"):
        instance_from_doc(doc)


def test_write_doc_keeps_the_file_when_serializing_fails(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("previous report\n")
    with pytest.raises(ValueError):
        formats.write_doc({"residual_max_abs": float("nan")}, str(path))
    assert path.read_text() == "previous report\n"
