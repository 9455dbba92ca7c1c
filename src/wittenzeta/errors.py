"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: DomainError and its subclasses
PoleError, ConstraintError and DegenerateLimitError -> 3, ConvergenceError
-> 4.
"""


class WittenZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WittenZetaError):
    """Argument outside the domain an operation supports."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConstraintError(DomainError):
    """A catalog parameter constraint (e.g. excluded prime) is violated."""


class DegenerateLimitError(DomainError):
    """A formal p -> 1 limit is 0 or infinite (vanishing-factor count mismatch)."""


class ConvergenceError(WittenZetaError):
    """A series/quadrature failed to meet its precision budget.

    ``achieved`` carries the best estimate obtained before giving up.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved
