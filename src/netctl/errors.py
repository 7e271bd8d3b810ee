"""Exception types shared across the package."""


class NetctlError(Exception):
    """Base class for all package-specific errors."""


class IndexOutOfRange(NetctlError):
    """A node id falls outside 0..n-1."""


class DuplicateEdge(NetctlError):
    """The same (from, to) pair appears more than once in an edge list."""


class RowSumError(NetctlError):
    """Incoming weights of some node do not sum to one."""

    def __init__(self, node: int, total: float):
        super().__init__(
            f"incoming weights of node {node} sum to {total!r}, expected 1.0"
        )
        self.node = node
        self.total = total


class ConnectivityFailure(NetctlError):
    """Geometric sampling never produced a connected placement."""


class NotErgodic(NetctlError):
    """The graph is not both irreducible and aperiodic."""


class ConvergenceFailure(NetctlError):
    """An iterative numerical routine exceeded its iteration cap."""


class NotControllable(NetctlError):
    """The target Gramian block is singular at the requested horizon."""


class DegenerateProjection(NetctlError):
    """The projection direction carries no reachable energy."""


class NodeUnreachable(NetctlError):
    """A node has no input-to-node path within the horizon."""


class NotACutset(NetctlError):
    """The supplied node set does not separate sources from targets."""


class DimensionMismatch(NetctlError):
    """Vector or matrix dimensions do not match the system."""
