"""Strict reading of the versioned JSON documents of :mod:`starsolve.formats`.

A document is read as JSON, then checked key by key and entry by entry:
unknown keys, wrong shapes, out-of-enum values, non-finite floats, exact
integer strings the format does not allow (see :mod:`starsolve.quadruples`),
integer literals too long to convert, and files nested too deeply to read
all raise FormatError.  An exact matrix goes from its parsed entry parts
straight to ``grids.from_parts``; a float one is checked once, by
``Matrix(...)``: finite, and real under the transpose involution.  An
instance is checked once more, as a whole, by ``formats.make_instance``.

``formats.load_instance`` and ``formats.load_matrix`` import this module on
first use, so `gen`, which only writes, never compiles it.
"""

import json
from typing import Mapping

from .formats import FORMAT_VERSION, FormatError, Instance, _fail, make_instance
from .matrix import Matrix
from .tags import BACKENDS, EXACT, INVOLUTIONS, finite_complex


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


def _parse_pair(raw, what: str) -> complex:
    """The ``complex`` of a float entry's [re, im] pair of JSON numbers,
    not yet checked for finiteness."""
    if not isinstance(raw, list) or len(raw) != 2:
        _fail(f"{what} must be a [re, im] pair")
    for part in raw:
        if isinstance(part, bool) or not isinstance(part, (int, float)):
            _fail(f"{what} must hold numbers, got {part!r}")
    try:
        return complex(*raw)
    except OverflowError:  # a JSON integer beyond the float range
        raise FormatError(f"{what} must be finite") from None


def decode_scalar(raw, backend: str, what: str = "entry"):
    _check_backend(backend, what)
    if backend == EXACT:
        from fractions import Fraction
        from .quadruples import _parse_quadruple
        from .scalars import GaussianRational
        re_num, re_den, im_num, im_den = _parse_quadruple(raw, what)
        return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))
    z = _parse_pair(raw, what)
    try:
        return finite_complex(z)
    except ValueError as exc:  # a non-finite part or modulus
        raise FormatError(f"{what}: {exc}") from exc


def decode_matrix(raw, backend: str, involution: str, what: str = "matrix") -> Matrix:
    _check_backend(backend, what)
    if not isinstance(raw, list) or not raw:
        _fail(f"{what} must be a non-empty list of rows")
    if backend == EXACT:  # the exact codec: a float run never loads it
        from .quadruples import _parse_quadruple as parse
    else:
        parse = _parse_pair
    width = None
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or not row:
            _fail(f"{what} row {i} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            _fail(f"{what} row {i} has {len(row)} entries, expected {width}")
        grid.append([parse(e, f"{what}[{i}][{j}]") for j, e in enumerate(row)])
    try:
        if backend == EXACT:
            from .grids import from_parts  # the exact arithmetic: a float run never loads it
            return from_parts(len(grid), width, involution, grid)
        return Matrix.floating(grid, involution)
    except ValueError as exc:  # a non-finite float, or transpose with complex entries
        raise FormatError(f"{what}: {exc}") from exc


def _check_backend(backend: str, what: str) -> None:
    if backend not in BACKENDS:
        _fail(f"{what} backend must be one of {BACKENDS}, got {backend!r}")


def _check_enums(doc: Mapping, what: str) -> None:
    _check_backend(doc["backend"], what)
    if doc["involution"] not in INVOLUTIONS:
        _fail(f"{what} involution must be one of {INVOLUTIONS}, got {doc['involution']!r}")


def matrix_from_doc(doc) -> Matrix:
    _require_keys(doc, ("version", "type", "backend", "involution", "matrix"),
                  what="matrix file")
    _check_version(doc, "matrix file")
    if doc["type"] != "matrix":
        _fail(f"matrix file type must be 'matrix', got {doc['type']!r}")
    _check_enums(doc, "matrix file")
    return decode_matrix(doc["matrix"], doc["backend"], doc["involution"])


def instance_from_doc(doc) -> Instance:
    _require_keys(doc, ("version", "kind", "backend", "involution", "operands"),
                  optional=("dims", "seed"), what="instance file")
    _check_version(doc, "instance file")
    _check_enums(doc, "instance file")

    raw_ops = doc["operands"]
    if not isinstance(raw_ops, dict):
        _fail("operands must be a JSON object")
    operands = {name: decode_matrix(raw, doc["backend"], doc["involution"], f"operand {name!r}")
                for name, raw in raw_ops.items()}

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

    # the kind, the operand names, the tags and the shapes: checked once, here
    return make_instance(doc["kind"], doc["backend"], doc["involution"], operands,
                         dims, seed)


def read_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: nested too deeply to read ({exc})") from exc
    except ValueError as exc:  # e.g. an integer literal of more digits than int() converts
        raise FormatError(f"{path}: not readable as JSON ({exc})") from exc
