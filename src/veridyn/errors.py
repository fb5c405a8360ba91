"""Exception types shared across the package.

Every error raised by veridyn derives from VeridynError, so callers can
catch the package's failures with a single except clause while still
distinguishing the precise failure mode.
"""


class VeridynError(Exception):
    """Base class for all veridyn errors."""


# --- categorical layer -------------------------------------------------

class NonComposableError(VeridynError):
    """Morphism composition attempted with mismatched endpoints."""


class ShapeMismatchError(VeridynError):
    """Two morphisms or carriers do not share the required endpoints."""


class MissingComponentError(VeridynError):
    """A natural transformation has no component at the requested object."""


class NotAutomorphismError(VeridynError):
    """A map expected to be a bijective endomap is not one."""


class UniverseEscapeError(VeridynError):
    """A functor application left the declared finite universe."""


class UnresolvedReferenceError(VeridynError):
    """A universe or scenario refers to an id that was never declared."""


class NoWitnessError(VeridynError):
    """A fixed-point verification was requested on a non-converged result."""


# --- entropy ledger ----------------------------------------------------

class InvalidDistributionError(VeridynError):
    """Probability vector fails normalization or positivity."""


class DomainError(VeridynError):
    """Numeric argument outside the domain of the requested formula."""


class LengthMismatchError(VeridynError):
    """Aligned sequences have different lengths."""


# --- phase arithmetic --------------------------------------------------

class NotAClosedLoopError(VeridynError):
    """A morphism list does not chain into a closed cycle."""


class PartialPhaseMapError(VeridynError):
    """A phase assignment misses elements of its carrier."""


class DenominatorOverflowError(VeridynError):
    """Exact phase arithmetic exceeded the configured denominator cap."""


# --- linear operators and dynamics --------------------------------------

class DimMismatchError(VeridynError):
    """Operands have incompatible dimensions."""


class DimensionCapError(VeridynError):
    """Operator dimension exceeds the configured cap."""


class PeriodMismatchError(VeridynError):
    """Operator does not return to the identity at its declared period."""


class UndefinedClaimError(VeridynError):
    """A spectrum-hull verdict was requested with a zero damping factor."""


class NoConvergenceError(VeridynError):
    """An iterative solve exhausted its iteration budget."""


class NonFiniteError(VeridynError):
    """A numeric result contains NaN or infinity."""


# --- scenario / CLI ------------------------------------------------------

class ScenarioParseError(VeridynError):
    """Scenario or universe file is not valid JSON or violates its schema."""


class MissingSectionError(VeridynError):
    """Scenario lacks a section required by the invoked command."""

    def __init__(self, section: str):
        super().__init__(f"scenario is missing required section {section!r}")
        self.section = section
