"""Exception types shared across the package.

Every domain error raised by weylkit derives from :class:`WeylkitError`,
so callers (and the CLI) can catch one base class and still report the
specific condition by name.
"""


class WeylkitError(Exception):
    """Base class for all weylkit domain errors."""


# --- Coxeter groups ---------------------------------------------------------

class UnsupportedType(WeylkitError):
    """Requested Coxeter type is not one of the supported families."""


class GroupTooLarge(WeylkitError):
    """Group order or search budget exceeds the configured cap."""


class GroupMismatch(WeylkitError):
    """Operation mixes elements of two different groups."""


# --- Thickenings ------------------------------------------------------------

class NotAnIdeal(WeylkitError):
    """Membership set is not downward closed in the Bruhat order."""


class WrongGroupType(WeylkitError):
    """Operation requires a specific Coxeter type (e.g. a power of A1)."""


# --- Symmetric space --------------------------------------------------------

class SingularInput(WeylkitError):
    """Matrix is singular or too ill-conditioned to decompose."""


class NotPositiveDefinite(WeylkitError):
    """Matrix fails the symmetric positive definite check."""


class DegenerateSegment(WeylkitError):
    """Two points coincide where a nondegenerate segment is required."""


class NonRegularDirection(WeylkitError):
    """Chamber direction lies on a wall (some coordinate gap vanishes)."""


class TieError(WeylkitError):
    """Eigenvalue tie: segment direction is on a wall, chamber undefined."""


# --- Flags ------------------------------------------------------------------

class NearSingular(WeylkitError):
    """Basis is too close to singular to define a flag."""


class AmbiguousRank(WeylkitError):
    """Numerical rank decision falls in the unreliable gray zone."""


class NotRegular(WeylkitError):
    """Matrix has no attracting flag (eigenvalue moduli not separated)."""


class BudgetExceeded(WeylkitError):
    """Word enumeration exceeded the configured budget."""


# --- Morse certificates -----------------------------------------------------

class NotAntipodalGenerators(WeylkitError):
    """Generator axes are not in general position (flags not antipodal)."""


# --- Weighted configurations ------------------------------------------------

class InconsistentBackends(WeylkitError):
    """Two independent computations of the same predicate disagree (a bug)."""
