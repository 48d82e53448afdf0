"""Exception types shared across the package, and the one rule that
reports bad input as ConfigError."""

import configparser
from contextlib import contextmanager

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


@contextmanager
def _as_config_error(context: str = ""):
    """Report bad input as ConfigError, the one rule for it: inside the
    block an OSError, ValueError, IdentifiabilityError or configparser.Error
    is re-raised as ConfigError(context + its text), and a ConfigError
    passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (OSError, ValueError, IdentifiabilityError, configparser.Error) as exc:
        raise ConfigError(context + str(exc)) from exc
