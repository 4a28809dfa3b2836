"""Exception taxonomy. Everything user-facing derives from CorrsyncError so the
CLI can map domain failures to a single exit code. check_integer and
check_real are the one rule for each kind of scalar argument: an integer (a
count, a seed, a vertex or an endpoint) and a finite real parameter."""

import math
import numbers


class CorrsyncError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidValueError(CorrsyncError, ValueError):
    """An argument value outside its valid range."""


def check_integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """value as a Python int. A Python or numpy integer passes if it is at
    least low and at most high, each when given; a bool, a float, even an
    integral one, or an integer out of range raises InvalidValueError naming
    what."""
    # a plain int skips the slower abstract-base-class test
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise InvalidValueError(f"{what} {value!r} is not an integer")
    if (low is not None and value < low) or (high is not None and value > high):
        rule = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidValueError(f"{what} must be {rule}, got {value}")
    return int(value)


def check_real(value, what: str, low: float, *, strict: bool = False,
               high: float | None = None) -> float:
    """value as a Python float. A finite real number passes if it is at least
    low, or above it when strict, and at most high when given; a bool, a
    non-number, NaN, ±inf or a number out of range raises InvalidValueError
    naming what."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an int that no float holds
        x = math.inf
    if not (math.isfinite(x) and (x > low if strict else x >= low) and (high is None or x <= high)):
        rule = (f"{'>' if strict else '>='} {low}" if high is None
                else f"in {'(' if strict else '['}{low}, {high}]")
        raise InvalidValueError(f"{what} must be a finite number {rule}, got {value!r}")
    return x


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
