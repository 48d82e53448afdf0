"""Exception types shared across the package."""

__all__ = ["PilotCovError", "InvalidProfileError", "InfeasibleConstraintError",
           "IdentifiabilityError", "SingularSystemError", "ConfigError"]


class PilotCovError(Exception):
    """Base class for all package-specific errors."""


class InvalidProfileError(PilotCovError, ValueError):
    """A variance-profile parameter is out of its valid range."""


class InfeasibleConstraintError(PilotCovError, ValueError):
    """A pilot-allocation constraint cannot be satisfied (e.g. more users
    per cell than available pilots)."""


class IdentifiabilityError(PilotCovError, RuntimeError):
    """The compound allocation matrix does not have full row rank, so the
    per-user channel variances cannot be uniquely reconstructed."""


class SingularSystemError(PilotCovError, RuntimeError):
    """A linear system that should be positive definite turned out to be
    numerically singular."""


class ConfigError(PilotCovError, ValueError):
    """An experiment configuration file or object failed validation."""
