"""The JSON text of a float matrix, built straight from its entries.

``formats.dumps_doc`` writes a document's skeleton through json's indented
encoder and splices in, where each float ``Matrix`` sits, the text this
module builds: byte for byte what json writes for the matrix's
``encode_matrix`` lists at that column, with no list per entry and no
encoder step per number.  Only a process that writes a float matrix loads
this module.
"""


def matrix_text(m, column: int) -> str:
    """The text ``json.dumps(..., indent=2, allow_nan=False)`` writes for
    ``encode_matrix(m)``, a ``[re, im]`` pair per entry, as a value on a
    line indented ``column`` spaces.  Each part is ``float.__repr__`` of it,
    as json writes a finite float; a NaN or infinite part raises ValueError,
    as json does."""
    if not m.rows:
        return "[]"
    n0, n1, n2, n3 = ("\n" + " " * (column + step) for step in (0, 2, 4, 6))
    entry = f"[{n3}%r,{n3}%r{n2}]"
    row = "[" + n2 + ("," + n2).join([entry] * m.cols) + n1 + "]" if m.cols else "[]"
    text = ("[" + n1 + ("," + n1).join([row] * m.rows) + n0 + "]") % tuple(
        [part for r in m.entries for z in r for part in (z.real, z.imag)])
    if "n" in text:  # "inf" or "nan": no finite float's repr holds an n
        raise ValueError("Out of range float values are not JSON compliant")
    return text
