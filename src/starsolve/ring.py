"""The ring of square matrices, and the error raised when an element has no
Moore-Penrose inverse.

The solution theory holds in any ring with involution in which 2 is
invertible; this package realizes it with matrices only, so the solvers
work on :class:`~starsolve.matrix.Matrix` directly and take a
:class:`MatrixRing` as the ring of c without reading it.
"""

from .matrix import Matrix
from .tags import CONJUGATE_TRANSPOSE, EXACT, _check_header


class NotMpInvertibleError(Exception):
    """The element has no Moore-Penrose inverse (or none can be computed)."""


class MatrixRing:
    """The ring of square matrices of one size, backend and involution.

    The solvers take it as the ring of c; none of them reads it.
    """

    def __init__(self, size: int, backend: str = EXACT,
                 involution: str = CONJUGATE_TRANSPOSE):
        if size < 1:
            raise ValueError("matrix ring needs size >= 1")
        _check_header(size, size, involution, backend)
        self.size, self.backend, self.involution = size, backend, involution

    def __repr__(self):
        return f"MatrixRing(size={self.size}, backend={self.backend!r}, involution={self.involution!r})"

    def zero(self) -> Matrix:
        return Matrix.zeros(self.size, self.size, self.involution, self.backend)

    def one(self) -> Matrix:
        return Matrix.identity(self.size, self.involution, self.backend)
