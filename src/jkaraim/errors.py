"""Exception types raised across the package."""


class JkAraimError(Exception):
    """Base class for all package-specific errors."""


class InsufficientGeometry(JkAraimError):
    """Too few visible satellites, or geometry matrix is rank deficient."""


class SubsetRankDeficient(JkAraimError):
    """A subset geometry cannot support a solution (e.g. a whole
    constellation excluded leaves its clock state unobservable)."""


class InsufficientRedundancy(JkAraimError):
    """Requested fault-mode cardinality exceeds the available redundancy."""


class GridOverflow(JkAraimError):
    """Requested convolution support exceeds the configured maximum."""


class TailUnresolved(JkAraimError):
    """Requested tail probability falls below the resolvable mass of the
    grid plus its analytic tail."""


class EmptySample(JkAraimError):
    """An empty (or too small) sample array was passed to a fitting routine."""


class NonOverboundable(JkAraimError):
    """No finite-sigma Gaussian can dominate the empirical CDF."""


class EmConvergenceFailure(JkAraimError):
    """EM iteration did not converge within the iteration limit."""


class NoValidPartition(JkAraimError):
    """PGO construction constraints yield an invalid (negative) tail
    coefficient at the requested partition point."""


class KeplerNonConvergence(JkAraimError):
    """Kepler's equation iteration failed to converge."""


class UnknownSatellite(JkAraimError):
    """Satellite id missing from the bound table."""
