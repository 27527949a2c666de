"""Exact instance generators for the solvers, the oracle and the CLI's `gen`.

Every generator produces exact instances that satisfy the solvers'
standing hypotheses by construction; random pairs almost never do at rank
deficiency, so each family seeds structure deliberately, from the
structured matrices of :mod:`starsolve.structured` and the dense draws of
:mod:`starsolve.draws`.  Every matrix is built straight as an integer grid,
with no per-entry scalar, from the same draws in the same order as ever, so
seeded instances do not change.

The body of the CLI's `gen` lives here too (:func:`cmd_gen`, which parses
``--dims`` and ``--family`` and writes the instance): only `gen` loads this
module on the command line, so no other subcommand compiles that code.
"""

import random
import sys
from typing import Optional

from . import formats
from .formats import (FormatError, GenerationError, PAIR_FAMILIES, RECT_FAMILIES, RECT_KINDS,
                      SYM_KINDS)
from .draws import random_matrix, random_sixths
from .matrix import Matrix
from .rect import RectProblem
from .ring import MatrixRing
from .solvers import (MINUS, PLUS, _check_side, _check_sign, check_hypotheses, equation_lhs,
                      sym_general_form)
from .structured import (_random_diagonal_support, _random_sixths_entry, _sparse,
                         random_coisometry, random_unitary)
from .tags import CONJUGATE_TRANSPOSE, EXACT, FLOAT

_MAX_TRIES = 500


# Square pair families (all exact, all satisfying the standing hypotheses):
#   unitary   a unitary/orthogonal with rational entries, b arbitrary
#   equal     b = a
#   diagonal  commuting real/complex diagonals with support(b) inside support(a)
#   rejection bounded rejection sampling of dense pairs
# unitary and rejection are the rect coisometry and rejection pairs at (n, n, n).
# The family names PAIR_FAMILIES and RECT_FAMILIES live in formats.py.


def random_pair(rng: random.Random, size: int, family: str,
                involution: str = CONJUGATE_TRANSPOSE):
    """A square (a, b) satisfying the range and hermitian conditions."""
    if family in ("unitary", "rejection"):
        # an n x n coisometry is unitary
        rect_family = "coisometry" if family == "unitary" else family
        return random_rect_pair(rng, (size, size, size), rect_family, involution)
    if family == "equal":
        a = random_matrix(rng, size, size, EXACT, involution)
        return a, a
    if family == "diagonal":
        a, support = _random_diagonal_support(rng, size, involution)
        entries = {}
        for i in support:
            if rng.random() < 0.8:
                entries[i, i] = _random_sixths_entry(rng, involution)
        return a, _sparse(size, size, involution, entries)
    raise ValueError(f"unknown pair family {family!r}; choose from {PAIR_FAMILIES}")


def random_square_instance(rng: random.Random, sign: str, size: int, family: str,
                           force_solvable: bool = True,
                           involution: str = CONJUGATE_TRANSPOSE) -> RectProblem:
    """The problem (a, b, c) at dims (n, n, n) with the hypotheses holding;
    c forced solvable or random with the matching symmetry (so the
    interesting condition stays in play)."""
    _check_sign(sign)
    a, b = random_pair(rng, size, family, involution)
    return RectProblem(a, b, _random_c(rng, sign, a, b, force_solvable))


def _random_c(rng: random.Random, sign: str, a: Matrix, b: Matrix,
              force_solvable: bool) -> Matrix:
    """c for the pair (a, b): the image of a random x (solvable by
    construction), or a random matrix with the sign's symmetry."""
    if force_solvable:
        return equation_lhs(sign, a, b, random_matrix(rng, a.cols, b.cols, EXACT, a.involution))
    h = random_matrix(rng, a.rows, a.rows, EXACT, a.involution)
    return h.sub(h.star()) if sign == MINUS else h.add(h.star())


def random_sym_instance(rng: random.Random, side: str, size: int,
                        force_solvable: bool = True,
                        involution: str = CONJUGATE_TRANSPOSE):
    """(a, b) for x a* + a x* = b ("right") or a* x + x* a = b ("left").

    An invertible a makes every symmetric b solvable (the squeezed
    projection condition is vacuous), so a is drawn rank-deficient most of
    the time: a zeroed row starves the column space (right side), a zeroed
    column the row space (left side).
    """
    _check_side(side)
    a = random_matrix(rng, size, size, EXACT, involution)
    if size > 1 and rng.random() < 0.6:
        kill = rng.randrange(size)
        zero_line = Matrix.zeros(1, size, involution, EXACT)
        if side == "right":
            a = a.paste(kill, 0, zero_line)
        else:
            a = a.paste(0, kill, zero_line.star())
    if not force_solvable and rng.random() < 0.25:
        return a, random_matrix(rng, size, size, EXACT, involution)
    general_a, general_b, _ = sym_general_form(side, a, None)
    return a, _random_c(rng, PLUS, general_a, general_b, force_solvable)


def random_rect_pair(rng: random.Random, dims, family: str,
                     involution: str = CONJUGATE_TRANSPOSE):
    """Rectangular (A: m x n, B: m x p) satisfying the standing hypotheses."""
    m, n, p = dims
    if family == "coisometry":
        if n < m:
            raise GenerationError(f"coisometry family needs n >= m, got dims {dims}")
        return (random_coisometry(rng, m, n, involution),
                random_matrix(rng, m, p, EXACT, involution))
    if family == "diagonal":
        rank_cap = min(m, n)
        support = [i for i in range(rank_cap) if rng.random() < 0.75]
        a_entries, b_entries = {}, {}
        for i in support:
            x = random_sixths(rng)
            a_entries[i, i] = (x, 0, 6) if x else (1, 0, 1)
        for i in support:
            if i < p and rng.random() < 0.8:
                b_entries[i, i] = (random_sixths(rng), 0, 6)
        a = _sparse(m, n, involution, a_entries)
        b = _sparse(m, p, involution, b_entries)
        u = random_unitary(rng, m, involution)
        v = random_unitary(rng, n, involution)
        w = random_unitary(rng, p, involution)
        return u @ a @ v, u @ b @ w
    if family == "rejection":
        # Dense draws only pass when both A and B have full row rank (so
        # n >= m and p >= m); at other dims the bounded sampler exhausts.
        ring = MatrixRing(m, EXACT, involution)
        for _ in range(_MAX_TRIES):
            a = random_matrix(rng, m, n, EXACT, involution)
            b = random_matrix(rng, m, p, EXACT, involution)
            if check_hypotheses(ring, a, b).ok:
                return a, b
        raise GenerationError(
            f"no hypothesis-satisfying rectangular pair in {_MAX_TRIES} draws at dims {dims}")
    raise ValueError(f"unknown rect family {family!r}; choose from {RECT_FAMILIES}")


def random_rect_instance(rng: random.Random, dims, family: str,
                         force_solvable: bool = True,
                         involution: str = CONJUGATE_TRANSPOSE,
                         sign: str = MINUS) -> RectProblem:
    _check_sign(sign)
    a, b = random_rect_pair(rng, dims, family, involution)
    return RectProblem(a, b, _random_c(rng, sign, a, b, force_solvable))


# -- the CLI's `gen` ----------------------------------------------------------


def _parse_dims(kind: str, raw: Optional[str]):
    """--dims: "m,n,p" as a tuple for rect kinds, else "n" as an int (default 2)."""
    rect = kind in RECT_KINDS
    count = 3 if rect else 1
    parts = ["2"] * count if raw is None else raw.split(",")
    if len(parts) != count:
        raise FormatError(f"--dims must be {'m,n,p' if rect else 'n'} for {kind!r}, "
                          f"got {raw!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise FormatError(f"--dims must be integers, got {raw!r}")
    if any(not 0 < d <= sys.maxsize for d in dims):  # no list or range is longer
        raise FormatError(f"--dims must be between 1 and {sys.maxsize}, got {raw!r}")
    return dims if rect else dims[0]


def cmd_gen(args) -> None:
    """Draw the instance the `gen` arguments ask for and write it; a
    parameter error raises FormatError or GenerationError."""
    kind = args.kind
    dims = _parse_dims(kind, args.dims)
    rng = random.Random(args.seed)
    sign = formats.sign_of(kind)

    if kind in SYM_KINDS:
        if args.family is not None:
            raise FormatError("--family does not apply to sym kinds")
        a, b = random_sym_instance(rng, kind.removeprefix("sym_"), dims,
                                   args.force_solvable, args.involution)
        operands, inst_dims = {"a": a, "b": b}, None
    else:
        rect = kind in RECT_KINDS
        families, default = (RECT_FAMILIES, "coisometry") if rect else (PAIR_FAMILIES, "unitary")
        family = default if args.family is None else args.family
        if family not in families:
            raise FormatError(f"--family must be one of {families} for {kind!r}")
        problem = (random_rect_instance(rng, dims, family, args.force_solvable,
                                        args.involution, sign) if rect
                   else random_square_instance(rng, sign, dims, family, args.force_solvable,
                                               args.involution))
        operands, inst_dims = problem._asdict(), dims if rect else None

    if args.backend == FLOAT:
        operands = {name: m.to_float() for name, m in operands.items()}
    inst = formats.make_instance(kind, args.backend, args.involution, operands,
                                 inst_dims, args.seed)
    doc = formats._instance_doc(inst)
    if args.output:
        formats.write_doc(doc, args.output)
        shape = f"dims {dims}" if kind in RECT_KINDS else f"size {dims}"
        print(f"wrote {kind} instance ({args.backend}, {args.involution}, "
              f"{shape}, seed {args.seed}) to {args.output}")
    else:
        sys.stdout.write(formats.dumps_doc(doc))
