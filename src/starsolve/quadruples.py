"""Exact entries in documents: quadruples of decimal strings.

An exact entry is written [re_num, re_den, im_num, im_den], each part a
decimal string, so entries never hit integer-width limits.  Reading takes
an optional minus sign and ASCII digits only (``int()`` alone would take
"1_000" and whitespace), with nonzero denominators of either sign, in any
terms; writing goes straight from a matrix's integer grids (re, im, d),
each part over d in lowest terms.  Only an exact run loads this module, so
a float run neither compiles it nor compiles its pattern.
"""

import math
import re

from .formats import FormatError, _fail

_INT_RE = re.compile(r"-?[0-9]+")


def _parse_int_string(raw, what: str) -> int:
    # int() tolerates "1_000" and whitespace; the format does not
    if not isinstance(raw, str) or not _INT_RE.fullmatch(raw):
        _fail(f"{what} must be a decimal integer string, got {raw!r}")
    try:
        return int(raw)
    except ValueError as exc:  # more digits than the interpreter converts
        raise FormatError(f"{what}: {exc}") from exc


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


def _encode_part(x: int, d: int) -> list:
    """[num, den] of x / d in lowest terms, den > 0 (d > 0)."""
    k = math.gcd(x, d)
    return [str(x // k), str(d // k)]


def encode_grids(re_grid, im_grid, d: int) -> list:
    """The quadruple lists of the exact grids ``(re, im, d)``."""
    return [[_encode_part(x, d) + _encode_part(y, d) for x, y in zip(rr, ir)]
            for rr, ir in zip(re_grid, im_grid)]
