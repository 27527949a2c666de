"""Versioned JSON file formats for instances, matrices, and reports.

Two document types share one envelope convention:

  matrix file    {"version": "1", "type": "matrix", "backend", "involution", "matrix"}
  instance file  {"version": "1", "kind", "backend", "involution", "operands", ...}

Exact scalars serialize as quadruples of decimal strings
[re_num, re_den, im_num, im_den] so entries never hit integer-width
limits; float scalars are plain [re, im] pairs.  An exact matrix goes
straight between those strings and its integer grids (re, im, d), with no
per-entry scalar: decode brings the parts over the lcm of their
denominators and leaves one gcd reduction to ``grids.make``, encode divides
each part and d by their gcd.  Parsing is strict: unknown keys, wrong
shapes, out-of-enum values and integer strings with anything but an
optional minus sign and ASCII digits all raise FormatError.

The generator family names and GenerationError live here too: the CLI needs
them for its help text and exit codes at start-up, and loads generate.py
only for `gen`.
"""

import json
import math
import re
from typing import Mapping, NamedTuple, Optional, Tuple

from .matrix import BACKENDS, EXACT, INVOLUTIONS, Matrix, from_grids

FORMAT_VERSION = "1"

SQUARE_KINDS = ("minus", "plus")
SYM_KINDS = ("sym_right", "sym_left")
RECT_KINDS = ("rect_minus", "rect_plus")
KINDS = SQUARE_KINDS + SYM_KINDS + RECT_KINDS

# generator families of `gen --family` (see generate.py): square pairs, rect triples
PAIR_FAMILIES = ("unitary", "equal", "diagonal", "rejection")
RECT_FAMILIES = ("coisometry", "diagonal", "rejection")

# operand names, in serialization order, for each kind: a sym kind has no c
OPERAND_NAMES = {kind: ("a", "b") if kind in SYM_KINDS else ("a", "b", "c") for kind in KINDS}

_INT_RE = re.compile(r"-?[0-9]+")


def sign_of(kind: str) -> str:
    """Sign of the general-form equation a x b* -/+ b x* a* = c of a kind."""
    return "plus" if kind in ("plus", "sym_right", "sym_left", "rect_plus") else "minus"


class FormatError(ValueError):
    """Raised for any malformed or out-of-contract document."""


class GenerationError(Exception):
    """A generator cannot honour its parameters: an infeasible shape, or a
    bounded rejection sampler ran out of attempts."""


def _fail(msg: str) -> None:
    raise FormatError(msg)


def _require_keys(doc: Mapping, required, optional=(), what: str = "document") -> None:
    if not isinstance(doc, dict):
        _fail(f"{what} must be a JSON object")
    for key in required:
        if key not in doc:
            _fail(f"{what} is missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in doc:
        if key not in allowed:
            _fail(f"{what} has unknown key {key!r}")


def _check_version(doc: Mapping, what: str) -> None:
    if doc.get("version") != FORMAT_VERSION:
        _fail(f"{what} version must be {FORMAT_VERSION!r}, got {doc.get('version')!r}")


def _parse_int_string(raw, what: str) -> int:
    # int() tolerates "1_000" and whitespace; the format does not
    if not isinstance(raw, str) or not _INT_RE.fullmatch(raw):
        _fail(f"{what} must be a decimal integer string, got {raw!r}")
    try:
        return int(raw)
    except ValueError as exc:  # more digits than the interpreter converts
        raise FormatError(f"{what}: {exc}") from exc


# -- scalars ----------------------------------------------------------------


def encode_scalar(value, backend: str):
    if backend == EXACT:
        re_part, im_part = value.re, value.im
        return [str(re_part.numerator), str(re_part.denominator),
                str(im_part.numerator), str(im_part.denominator)]
    return [float(value.real), float(value.imag)]


def _parse_quadruple(raw, what: str) -> tuple:
    """The ints (re_num, re_den, im_num, im_den) of an exact entry; the
    denominators are nonzero, of either sign, and the terms need not be
    lowest."""
    if not isinstance(raw, list) or len(raw) != 4:
        _fail(f"{what} must be a [re_num, re_den, im_num, im_den] quadruple")
    parts = tuple(_parse_int_string(part, what) for part in raw)
    if parts[1] == 0 or parts[3] == 0:
        _fail(f"{what} has a zero denominator")
    return parts


def decode_scalar(raw, backend: str, what: str = "entry"):
    if backend == EXACT:
        from fractions import Fraction
        from .scalars import GaussianRational
        re_num, re_den, im_num, im_den = _parse_quadruple(raw, what)
        return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))
    if not isinstance(raw, list) or len(raw) != 2:
        _fail(f"{what} must be a [re, im] pair")
    parts = []
    for part in raw:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            _fail(f"{what} must hold numbers, got {part!r}")
        try:
            value = float(part)
        except OverflowError:  # a JSON integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            _fail(f"{what} must be finite")
        parts.append(value)
    return complex(parts[0], parts[1])


# -- matrices ---------------------------------------------------------------


def _encode_part(x: int, d: int) -> list:
    """[num, den] of x / d in lowest terms, den > 0 (d > 0)."""
    k = math.gcd(x, d)
    return [str(x // k), str(d // k)]


def encode_matrix(m: Matrix) -> list:
    if m.backend == EXACT:
        real, imag, d = m.grids
        return [[_encode_part(x, d) + _encode_part(y, d) for x, y in zip(rr, ir)]
                for rr, ir in zip(real, imag)]
    return [[encode_scalar(e, m.backend) for e in row] for row in m.entries]


def _exact_matrix(quadruples: list, involution: str) -> Matrix:
    """The exact matrix of parsed entry quadruples: every part over the lcm
    of all the denominators, reduced once by ``grids.make``."""
    d = math.lcm(*{den for row in quadruples for _, re_den, _, im_den in row
                   for den in (re_den, im_den)})
    real = [[num * (d // den) for num, den, _, _ in row] for row in quadruples]
    imag = [[num * (d // den) for _, _, num, den in row] for row in quadruples]
    return from_grids(len(quadruples), len(quadruples[0]), involution, real, imag, d)


def decode_matrix(raw, backend: str, involution: str, what: str = "matrix") -> Matrix:
    if not isinstance(raw, list) or not raw:
        _fail(f"{what} must be a non-empty list of rows")
    width = None
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            _fail(f"{what} row {i} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{what} row {i} has {len(row)} entries, expected {width}")
        grid.append([_parse_quadruple(e, f"{what}[{i}][{j}]") if backend == EXACT
                     else decode_scalar(e, backend, f"{what}[{i}][{j}]")
                     for j, e in enumerate(row)])
    try:
        if backend == EXACT:
            return _exact_matrix(grid, involution)
        return Matrix.floating(grid, involution)
    except ValueError as exc:  # e.g. transpose involution with complex entries
        raise FormatError(f"{what}: {exc}") from exc


def _check_enums(doc: Mapping, what: str) -> None:
    if doc["backend"] not in BACKENDS:
        _fail(f"{what} backend must be one of {BACKENDS}, got {doc['backend']!r}")
    if doc["involution"] not in INVOLUTIONS:
        _fail(f"{what} involution must be one of {INVOLUTIONS}, got {doc['involution']!r}")


def matrix_to_doc(m: Matrix) -> dict:
    return {
        "version": FORMAT_VERSION,
        "type": "matrix",
        "backend": m.backend,
        "involution": m.involution,
        "matrix": encode_matrix(m),
    }


def matrix_from_doc(doc) -> Matrix:
    _require_keys(doc, ("version", "type", "backend", "involution", "matrix"),
                  what="matrix file")
    _check_version(doc, "matrix file")
    if doc["type"] != "matrix":
        _fail(f"matrix file type must be 'matrix', got {doc['type']!r}")
    _check_enums(doc, "matrix file")
    return decode_matrix(doc["matrix"], doc["backend"], doc["involution"])


# -- instances ---------------------------------------------------------------


class Instance(NamedTuple):
    """One equation instance: which equation, over what ring, with what data."""

    kind: str
    backend: str
    involution: str
    operands: Mapping[str, Matrix]
    dims: Optional[Tuple[int, int, int]] = None
    seed: Optional[int] = None

    def operand(self, name: str) -> Matrix:
        return self.operands[name]

    @property
    def size(self) -> int:
        """Size of the ring of c: the row count of a (m for rect kinds)."""
        return self.operands["a"].rows

    @property
    def sign(self) -> str:
        return sign_of(self.kind)


def _validate_instance(inst: Instance) -> None:
    if inst.kind not in KINDS:
        _fail(f"kind must be one of {KINDS}, got {inst.kind!r}")
    names = OPERAND_NAMES[inst.kind]
    if tuple(sorted(inst.operands)) != tuple(sorted(names)):
        _fail(f"kind {inst.kind!r} needs operands {names}, got "
              f"{tuple(sorted(inst.operands))}")
    for name in names:
        m = inst.operands[name]
        if m.backend != inst.backend or m.involution != inst.involution:
            _fail(f"operand {name!r} tags do not match the instance header")

    rect = inst.kind in RECT_KINDS
    if rect and inst.dims is None:
        _fail(f"kind {inst.kind!r} requires dims [m, n, p]")
    if not rect and inst.dims is not None:
        _fail(f"dims are only valid for rect kinds, not {inst.kind!r}")
    # square and sym kinds take the rect rule at m = n = p
    dims = inst.dims or (inst.operands["a"].rows,) * 3
    m, n, p = dims
    expected = {"a": (m, n), "b": (m, p), "c": (m, m)}
    for name in names:
        shape = inst.operands[name].shape
        if shape != expected[name]:
            _fail(f"operand {name!r} must have shape {expected[name]} for "
                  f"dims {dims}, got {shape}")


def make_instance(kind: str, backend: str, involution: str,
                  operands: Mapping[str, Matrix],
                  dims: Optional[Tuple[int, int, int]] = None,
                  seed: Optional[int] = None) -> Instance:
    inst = Instance(kind, backend, involution, dict(operands), dims, seed)
    _validate_instance(inst)
    return inst


def instance_to_doc(inst: Instance) -> dict:
    _validate_instance(inst)
    doc = {
        "version": FORMAT_VERSION,
        "kind": inst.kind,
        "backend": inst.backend,
        "involution": inst.involution,
        "operands": {name: encode_matrix(inst.operands[name])
                     for name in OPERAND_NAMES[inst.kind]},
    }
    if inst.dims is not None:
        doc["dims"] = list(inst.dims)
    if inst.seed is not None:
        doc["seed"] = inst.seed
    return doc


def instance_from_doc(doc) -> Instance:
    _require_keys(doc, ("version", "kind", "backend", "involution", "operands"),
                  optional=("dims", "seed"), what="instance file")
    _check_version(doc, "instance file")
    kind = doc["kind"]
    if kind not in KINDS:
        _fail(f"kind must be one of {KINDS}, got {kind!r}")
    _check_enums(doc, "instance file")

    raw_ops = doc["operands"]
    if not isinstance(raw_ops, dict):
        _fail("operands must be a JSON object")
    names = OPERAND_NAMES[kind]
    for name in raw_ops:
        if name not in names:
            _fail(f"kind {kind!r} does not take operand {name!r}")
    operands = {}
    for name in names:
        if name not in raw_ops:
            _fail(f"kind {kind!r} is missing operand {name!r}")
        operands[name] = decode_matrix(raw_ops[name], doc["backend"],
                                       doc["involution"], f"operand {name!r}")

    dims = None
    if "dims" in doc:
        raw_dims = doc["dims"]
        if (not isinstance(raw_dims, list) or len(raw_dims) != 3
                or any(isinstance(d, bool) or not isinstance(d, int) or d < 1
                       for d in raw_dims)):
            _fail(f"dims must be a [m, n, p] list of positive integers, got {raw_dims!r}")
        dims = tuple(raw_dims)

    seed = None
    if "seed" in doc:
        seed = doc["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int):
            _fail(f"seed must be an integer, got {seed!r}")

    return make_instance(kind, doc["backend"], doc["involution"], operands,
                         dims, seed)


# -- files --------------------------------------------------------------------


def dumps_doc(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_doc(doc, path: str) -> None:
    """Write ``dumps_doc(doc)`` to ``path``; a doc that fails to serialize
    leaves an existing file untouched."""
    text = dumps_doc(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def load_instance(path: str) -> Instance:
    return instance_from_doc(read_doc(path))


def save_instance(inst: Instance, path: str) -> None:
    write_doc(instance_to_doc(inst), path)


def load_matrix(path: str) -> Matrix:
    return matrix_from_doc(read_doc(path))


def save_matrix(m: Matrix, path: str) -> None:
    write_doc(matrix_to_doc(m), path)
