"""Exception hierarchy shared by all hamconn modules."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertexError(GraphError):
    """A vertex id does not exist in the graph."""


class UnknownEdgeError(GraphError):
    """An edge id does not exist in the graph."""


class DisconnectedGraphError(GraphError):
    """An operation required a connected graph."""


class NotALineGraphOfMultigraphError(GraphError):
    """The input graph is not the line graph of any multigraph.

    ``witness`` carries an obstructing induced configuration when one was
    identified (currently a claw, as a 4-tuple ``(center, a, b, c)``).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateCoreError(GraphError):
    """Pendant removal and suppression collapsed the graph to nothing usable."""


class NotEssentially3EdgeConnectedError(GraphError):
    """The multigraph has an essential edge-cut of size below 3.

    ``cut`` carries one violating edge set when available.
    """

    def __init__(self, message, cut=None):
        super().__init__(message)
        self.cut = cut


class NoCoreLocationError(GraphError):
    """A pendant edge has no core edge to project to: its support vertex was
    stripped too, or keeps only loops in the core."""


class TrailNotFoundError(GraphError):
    """Exhaustive search found no trail although one was required."""


class LiftFailedError(GraphError):
    """A constructed certificate failed its own validation.

    This class marks internal invariant breaches: reaching it means a bug in
    the construction, never a property of the input.
    """
