"""Versioned JSON file formats for instances, matrices, and reports.

Two document types share one envelope convention:

  matrix file    {"version": "1", "type": "matrix", "backend", "involution", "matrix"}
  instance file  {"version": "1", "kind", "backend", "involution", "operands", ...}

Exact scalars serialize as quadruples of decimal strings
[re_num, re_den, im_num, im_den] so entries never hit integer-width
limits; float scalars are plain [re, im] pairs.  An exact matrix goes
straight between those strings and its integer grids (re, im, d), with no
per-entry scalar, in :mod:`starsolve.quadruples`, which only an exact run
loads.  An instance is checked once, by ``make_instance``;
``instance_to_doc`` trusts the Instance it is given.  Reading is strict and
lives in :mod:`starsolve.parse`, which the loaders import on first use, so
`gen`, which only writes, never compiles it; ``decode_matrix`` still
resolves here, on first access, because the benchmark harness (perfbench/)
reaches it as ``formats.decode_matrix``.

A document to write may hold ``Matrix`` values where its matrices go: the
CLI's reports, ``matrix_to_doc`` and the instance document that
``save_instance`` and `gen` write carry them as they are (``instance_to_doc``
returns lists, the document a reader parses).  ``dumps_doc`` runs json's
indented encoder over the rest of the document: it turns an exact matrix
into its ``encode_matrix`` lists only when it reaches it, and a float matrix
into a placeholder whose place it then fills with the matrix's text, built
straight from the entries by :mod:`starsolve.floattext`, which only a
process that writes a float matrix loads.  Either way the text is what
``json.dumps`` writes for the encoded lists, and ``dumps_doc`` joins its
chunks a batch at a time and never holds a list of every chunk.

Every CLI report opens with the same envelope, version, command and
generated_at, and carries each residual or tolerance as a finite JSON
float; those shared pieces of the report-writing subcommands live here, as
do the CLI's exit codes, the generator family names, GenerationError and
SelfCheckError: the CLI needs the names for its help text and the errors for
its exit codes at start-up, and loads each subcommand's body (generate.py
for `gen`) only when that subcommand runs.
"""

import json
import math
import sys
import time
from itertools import chain, islice
from typing import Mapping, NamedTuple, Optional, Tuple

from .matrix import Matrix
from .tags import EXACT

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


def sign_of(kind: str) -> str:
    """Sign of the general-form equation a x b* -/+ b x* a* = c of a kind."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return "plus" if kind in ("plus", "sym_right", "sym_left", "rect_plus") else "minus"


class FormatError(ValueError):
    """Raised for any malformed or out-of-contract document."""


class GenerationError(Exception):
    """A generator cannot honour its parameters: an infeasible shape, or a
    bounded rejection sampler ran out of attempts."""


class SelfCheckError(Exception):
    """A solution the CLI was about to print failed its own re-verification."""


def _fail(msg: str) -> None:
    raise FormatError(msg)


# -- scalars ----------------------------------------------------------------


def encode_scalar(value, backend: str):
    if backend == EXACT:
        re_part, im_part = value.re, value.im
        return [str(re_part.numerator), str(re_part.denominator),
                str(im_part.numerator), str(im_part.denominator)]
    return [float(value.real), float(value.imag)]


# -- matrices ---------------------------------------------------------------


def encode_matrix(m: Matrix) -> list:
    if m.backend == EXACT:
        from .quadruples import encode_grids  # the exact codec: a float run never loads it
        return encode_grids(*m.grids)
    return [[encode_scalar(e, m.backend) for e in row] for row in m.entries]


def matrix_to_doc(m: Matrix) -> dict:
    """The matrix document of ``m``, which carries ``m`` itself for
    ``dumps_doc`` to write."""
    return {
        "version": FORMAT_VERSION,
        "type": "matrix",
        "backend": m.backend,
        "involution": m.involution,
        "matrix": m,
    }


# -- instances ---------------------------------------------------------------


class Instance(NamedTuple):
    """One equation instance: which equation, over what ring, with what data.

    Build one with :func:`make_instance` or ``parse.instance_from_doc``,
    which validate it; the rest of the package trusts it."""

    kind: str
    backend: str
    involution: str
    operands: Mapping[str, Matrix]
    dims: Optional[Tuple[int, int, int]] = None
    seed: Optional[int] = None

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


def _instance_doc(inst: Instance) -> dict:
    """The instance document to write: its operands are ``Matrix`` values."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": inst.kind,
        "backend": inst.backend,
        "involution": inst.involution,
        "operands": {name: inst.operands[name] for name in OPERAND_NAMES[inst.kind]},
    }
    if inst.dims is not None:
        doc["dims"] = list(inst.dims)
    if inst.seed is not None:
        doc["seed"] = inst.seed
    return doc


def instance_to_doc(inst: Instance) -> dict:
    """The instance document with each operand as its ``encode_matrix`` lists."""
    doc = _instance_doc(inst)
    doc["operands"] = {name: encode_matrix(m) for name, m in doc["operands"].items()}
    return doc


# -- files --------------------------------------------------------------------


# chunks per joined batch: a few KB of json's own text (a float n=16 solve
# report written through lists has 5,532 chunks)
_BATCH = 512


def dumps_doc(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing
    newline; a ``Matrix`` in ``doc`` is written as ``encode_matrix`` of it.
    The text equals ``json.dumps`` of ``doc`` with its matrices encoded.
    The chunks are joined ``_BATCH`` at a time, so no list of every chunk
    exists and the peak is about twice the text: the batches and their join.
    A non-finite float raises ValueError, a value of another type json's
    TypeError."""
    floats = []  # the float matrix whose placeholder is the encoder's next chunk

    def default(value):
        if not isinstance(value, Matrix):
            return json.JSONEncoder.default(encoder, value)
        if value.backend == EXACT:
            return encode_matrix(value)
        floats.append(value)
        return "\0"

    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=default)
    chunks = chain(_spliced(encoder.iterencode(doc), floats), ("\n",))
    return "".join(iter(lambda: "".join(islice(chunks, _BATCH)), ""))


def _spliced(chunks, floats):
    """``chunks`` with each float matrix's placeholder replaced by its text.
    The encoder calls ``default`` just before it yields the placeholder, so
    the placeholder is the chunk that follows a recorded matrix, whatever
    strings the document holds; its line's indent is what follows the last
    newline the encoder wrote."""
    line = ""
    for chunk in chunks:
        if floats:
            from .floattext import matrix_text  # loaded only to write a float matrix
            chunk = matrix_text(floats.pop(), len(line) - line.rfind("\n") - 1)
        elif "\n" in chunk:
            line = chunk
        yield chunk


def write_doc(doc, path: str) -> None:
    """Write ``dumps_doc(doc)`` to ``path``.  The whole text is made before
    the file is opened, so a doc that fails to serialize leaves an existing
    file untouched."""
    text = dumps_doc(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_instance(path: str) -> Instance:
    from .parse import instance_from_doc, read_doc  # reading: `gen` never loads it
    return instance_from_doc(read_doc(path))


def save_instance(inst: Instance, path: str) -> None:
    write_doc(_instance_doc(inst), path)


def load_matrix(path: str) -> Matrix:
    from .parse import matrix_from_doc, read_doc
    return matrix_from_doc(read_doc(path))


def save_matrix(m: Matrix, path: str) -> None:
    write_doc(matrix_to_doc(m), path)


# -- reports -----------------------------------------------------------------

# the CLI's exit codes (see cli), which main and the subcommands return
EXIT_OK = 0
EXIT_PARAM = 2
EXIT_NOT_MP_INVERTIBLE = 3
EXIT_UNSOLVABLE = 4
EXIT_HYPOTHESES_FAIL = 5
EXIT_VERIFY_FAIL = 6
EXIT_SELF_CHECK = 7


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _report(command: str, **fields) -> dict:
    """A report: the envelope every subcommand's report shares, then ``fields``."""
    return {"version": FORMAT_VERSION, "command": command,
            "generated_at": _utc_now(), **fields}


def _finite(value: Optional[float], what: str) -> Optional[float]:
    """A residual or tolerance (None on the exact backend) for a report
    field, which is a JSON float; FormatError when it is not finite (an
    overflow, or a NaN from inf * 0), since a verdict judged by it means
    nothing."""
    if value is not None and not math.isfinite(value):
        raise FormatError(f"{what} is {value}, not a finite float, and cannot be reported")
    return value


def _max_abs(m) -> float:
    """``m.max_abs()`` through :func:`_finite`."""
    try:
        value = m.max_abs()
    except OverflowError:  # an exact part beyond the float range
        value = math.inf
    return _finite(value, "a residual's largest |entry|")


def _instance_summary(inst: Instance) -> dict:
    return {
        "kind": inst.kind,
        "backend": inst.backend,
        "involution": inst.involution,
        "dims": list(inst.dims) if inst.dims is not None else None,
        "shapes": {name: list(m.shape) for name, m in sorted(inst.operands.items())},
    }


def _emit(doc: dict, args, summary_lines) -> None:
    if args.output:
        write_doc(doc, args.output)
        for line in summary_lines:
            print(line)
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(dumps_doc(doc))


def __getattr__(name):
    """``decode_matrix``, from :mod:`starsolve.parse` (PEP 562): the
    benchmark harness reaches it as ``formats.decode_matrix``."""
    if name != "decode_matrix":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .parse import decode_matrix
    return decode_matrix
