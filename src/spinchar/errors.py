"""Exceptions shared across the library."""


class SpinCharError(Exception):
    """Base class for all library errors."""


class InvalidDescriptor(SpinCharError):
    """Malformed or unsupported root-system descriptor."""


class BudgetExceeded(SpinCharError):
    """A computation would exceed a configured resource budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NonModuleCharacter(SpinCharError):
    """A character that cannot be a module was fed to a decomposition."""


class NotSelfDual(SpinCharError):
    """A weight system without the symmetry m(mu) == m(-mu)."""


class NotClosed(SpinCharError):
    """A generating set that is not closed under root addition."""


class ConsistencyError(SpinCharError):
    """Two exact routes to the same result disagree."""
