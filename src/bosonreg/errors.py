"""Exception types shared across the package."""

__all__ = [
    "BosonRegError",
    "RankMismatchError",
    "ZeroVectorError",
    "RankTooLargeError",
    "NotBosonicError",
    "TruncationRiskError",
    "EnergyScaleError",
    "PhaseOverflowError",
]


class BosonRegError(Exception):
    """Base class for all domain errors raised by this package."""


class RankMismatchError(BosonRegError):
    """Two objects with different register ranks were combined."""


class ZeroVectorError(BosonRegError):
    """An operation that needs a nonzero state, or a nonzero squared norm, got zero."""


class RankTooLargeError(BosonRegError):
    """A dense 2^R representation was requested above the supported rank."""


class NotBosonicError(BosonRegError):
    """A bosonic-only operation received a state outside the bosonic subspace."""


class TruncationRiskError(BosonRegError):
    """A coherent amplitude is too large for the configured rank to resolve."""


class EnergyScaleError(BosonRegError, ValueError):
    """The level spacing alpha * beta * hbar overflows or underflows a float."""


class PhaseOverflowError(BosonRegError, ValueError):
    """A free-evolution phase (n + 1/2) epsilon t / hbar overflows a float."""
