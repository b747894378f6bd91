"""Exception types shared across the package."""


class BallotkitError(Exception):
    """Base class for all ballotkit errors."""


class InvalidInputError(BallotkitError, ValueError):
    """An argument violates a documented precondition (bad word, non-member,
    a cap below 1, ...)."""


class UnsupportedClassError(BallotkitError, ValueError):
    """The requested avoidance class is not catalogued for this operation."""


class UnrealizableWordError(InvalidInputError):
    """No member of the class has the requested descent word."""


class CapExceededError(BallotkitError, RuntimeError):
    """A request passes a length cap of ``enumeration.Caps`` or the row bound
    of the listing and counting kernels."""
