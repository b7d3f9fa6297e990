"""Exception types shared across the package."""


class SfvemError(Exception):
    """Base class for all package errors.

    A stacked kernel that fails on one polygon of its stack sets index to
    that polygon's position, so a caller can name the cell.
    """

    index = None


def at_index(exc: SfvemError, index) -> SfvemError:
    """exc, about the polygon at this position of a stack."""
    exc.index = int(index)
    return exc


class MeshFormatError(SfvemError):
    """Mesh file could not be parsed (bad header, counts, or tokens)."""


class MeshIndexError(SfvemError):
    """Cell references a vertex index outside the vertex table."""


class MeshTopologyError(SfvemError):
    """Mesh violates orientation, simplicity, or manifold constraints."""


class MeshGenerationError(SfvemError):
    """Generator could not produce a valid mesh within the retry budget."""


class DegenerateElementError(SfvemError):
    """Element area vanishes relative to its diameter."""


class SingularGramError(SfvemError):
    """Harmonic-gradient Gram system is singular beyond recovery."""


class SingularSystemError(SfvemError):
    """Global matrix factorization failed or produced a non-finite solution."""


class QuadratureError(SfvemError):
    """Invalid input for a quadrature rule: a node count, a degree, or a
    polygon with too few vertices or a non-positive signed area."""
