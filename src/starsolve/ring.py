"""The error raised when an element has no Moore-Penrose inverse.

The solution theory holds in any ring with involution in which 2 is
invertible; this package realizes it with matrices only, so the solvers
work on :class:`~starsolve.matrix.Matrix` directly.
"""


class NotMpInvertibleError(Exception):
    """The element has no Moore-Penrose inverse (or none can be computed)."""
