"""Exception taxonomy. Everything user-facing derives from CorrsyncError so the
CLI can map domain failures to a single exit code. check_integer is the one
integer rule for a vertex or endpoint argument."""

import numbers


class CorrsyncError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidValueError(CorrsyncError, ValueError):
    """An argument value outside its valid range."""


def check_integer(value, what: str) -> int:
    """value as a Python int. A Python or numpy integer passes; a bool or a
    float, even an integral one, raises InvalidValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidValueError(f"{what} {value!r} is not an integer")
    return int(value)


class ManifestError(CorrsyncError):
    """Malformed manifest or referenced file problems."""


class MetricAsymmetryError(CorrsyncError):
    """Distance matrix is not symmetric within tolerance or has a nonzero diagonal."""


class DuplicateShapeError(CorrsyncError):
    """Two shapes at distance zero; pass allow_duplicates to accept."""


class IndexRangeError(CorrsyncError):
    """A vertex index points outside its shape."""


class SoftRowError(CorrsyncError):
    """A soft map row is negative or does not sum to one."""


class InverseViolationError(CorrsyncError):
    """Both directions of a pair are discrete bijections but not mutual inverses."""


class MissingMapError(CorrsyncError):
    """An operation needed a pairwise map that the collection does not store."""


class DisconnectedGraphError(CorrsyncError):
    """A graph that must be connected is not; message names the components."""


class PathBudgetError(CorrsyncError):
    """Path enumeration exceeded max_paths."""


class OracleBoundError(CorrsyncError):
    """Brute-force oracle invoked above its intended instance size."""


class EmptyPathSetError(CorrsyncError):
    """No path carries weight: strict mode pruned them all, or every weight underflowed."""


class MaxStepsError(CorrsyncError):
    """A walk failed to terminate within its step budget."""


class BallOverlapError(CorrsyncError):
    """Landmark balls of the requested radius are not pairwise disjoint."""


class DegenerateGeometryError(CorrsyncError):
    """Point set too degenerate for rigid alignment (fewer than 3 points or collinear)."""


class AntipodalError(CorrsyncError):
    """Sphere construction undefined for antipodal or non-unit inputs."""
