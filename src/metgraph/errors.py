"""Exception types shared across the package."""


class MetgraphError(Exception):
    """Base class for every error raised by this package."""


class GraphDisconnected(MetgraphError):
    """The edge set does not connect all vertices."""


class NonpositiveLength(MetgraphError):
    """An edge length is zero or negative."""


class NotAdequate(MetgraphError):
    """Operation requires a vertex set with no loops and no parallel edges."""


class BadDegree(MetgraphError):
    """The divisor has degree -2, for which no admissible measure exists."""


class SingularShift(MetgraphError):
    """The reduced Laplacian, grounded at vertex 0, is singular (the graph
    behind it is disconnected)."""


class PointOutOfRange(MetgraphError):
    """A point's edge index or offset falls outside the graph."""


class GraphFormatError(MetgraphError):
    """A graph file could not be parsed; the message names the offending field."""
