"""Exception types shared across the package."""


class BallotkitError(Exception):
    """Base class for all ballotkit errors."""


class InvalidInputError(BallotkitError, ValueError):
    """An argument violates a documented precondition (bad word, non-member, ...)."""


class ConfigError(InvalidInputError):
    """A cap is below 1, or a ``BALLOTKIT_*`` value the CLI reads is
    malformed; the CLI reports it as a usage error."""


class UnsupportedClassError(BallotkitError, ValueError):
    """The requested avoidance class is not catalogued for this operation."""


class UnrealizableWordError(InvalidInputError):
    """No member of the class has the requested descent word."""


class CapExceededError(BallotkitError, RuntimeError):
    """An enumeration request exceeds the configured size cap."""
