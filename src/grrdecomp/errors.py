"""Exception hierarchy for the grrdecomp package.

Every failure the library reports deliberately goes through GRRError so
callers can catch one base type. InputError covers rejected inputs;
the remaining subclasses flag operational limits or malformed files.
"""


class GRRError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GRRError):
    """An input object failed validation."""


# -- drawings ---------------------------------------------------------------

class DuplicateVertexError(InputError):
    """Two vertices share an id or a coordinate pair."""


class ZeroLengthEdgeError(InputError):
    """An edge joins a vertex to itself."""


class UnknownVertexError(InputError):
    """An edge or query references a vertex id that does not exist."""


class UnknownEdgeError(InputError):
    """A query references an edge index that does not exist."""


class DuplicateEdgeError(InputError):
    """The same unordered vertex pair appears twice in the edge list."""


class CrossingEdgesError(InputError):
    """Two edges intersect anywhere other than a shared endpoint."""


class OverlappingEdgesError(InputError):
    """Two collinear edges share more than a single point."""


class NotATreeError(InputError):
    """The drawing (or multicut instance) is not connected and acyclic."""


class RootNotDegreeOneError(InputError):
    """The requested root of a rooted tree does not have degree one."""


# -- paths ------------------------------------------------------------------

class DegeneratePathError(InputError):
    """A polyline has fewer than two points or a zero-length segment."""


class InvalidPathFamilyError(InputError):
    """Paths meant to share an origin and form a tree fail to do so."""


# -- polygons ---------------------------------------------------------------

class NotSimplePolygonError(InputError):
    """Polygon boundary self-intersects, repeats points, or degenerates."""


class NotCounterclockwiseError(InputError):
    """Polygon boundary is not in counterclockwise order."""


class InvalidTriangulationError(InputError):
    """A supplied triangulation is not a triangulation of the polygon."""


class IncompleteTriangulationError(InvalidTriangulationError):
    """Diagonal set does not triangulate the polygon (wrong count or gap)."""


class CrossingDiagonalsError(InvalidTriangulationError):
    """A diagonal crosses the boundary, another diagonal, or a vertex."""


class SameTriangleError(InputError):
    """A triangle-pair query named the same triangle twice."""


class UnknownTriangleError(InputError):
    """A query references a triangle index that does not exist."""


class PointOutsidePolygonError(InputError):
    """A routing endpoint lies outside the polygon."""


class PieceNotSimpleError(InputError):
    """A triangle group does not stitch into a simple polygon."""


# -- operational ------------------------------------------------------------

class BudgetExceededError(GRRError):
    """An exact search was asked to exceed its instance-size budget."""


class FormatError(GRRError):
    """A file or string does not match the expected JSON schema."""
