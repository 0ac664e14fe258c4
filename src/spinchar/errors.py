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
    """An input that is no module character: a weight off the lattice, no
    Weyl invariance, an inexact division or a negative multiplicity."""


class NotSelfDual(SpinCharError):
    """A weight system without the symmetry m(mu) == m(-mu)."""


class NotClosed(SpinCharError):
    """A generating set that is not closed under root addition."""


class ConsistencyError(SpinCharError):
    """A self-check failed: a result contradicts a formula it must obey, or
    two exact routes to it disagree. Only a library fault raises it."""
