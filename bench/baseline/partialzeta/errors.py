"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract, so new error conditions
should subclass one of the groups below rather than raising bare ValueError.
"""


class PartialZetaError(Exception):
    """Base class for all library errors."""


class InvalidConfigError(PartialZetaError):
    """Malformed backend parameters, characters, graphs or CLI configs."""


class DomainError(PartialZetaError):
    """Evaluation requested outside the stated domain of validity."""


class SingularLocalFactorError(DomainError):
    """A local Euler factor 1 - chi * N(p)^{-s} is numerically zero."""


class SingularityProximityError(PartialZetaError):
    """Evaluation point within the exclusion radius of a cataloged singularity."""


class BudgetExceededError(PartialZetaError):
    """An enumeration or subdivision budget was exhausted."""


class UnresolvedBoxError(PartialZetaError):
    """Argument-principle box subdivision bottomed out without an integer winding."""


class InsufficientDataError(PartialZetaError):
    """Not enough cataloged singularity classes for a meaningful report."""


class PoleAtOneError(DomainError):
    """The Riemann zeta factor was evaluated at its pole s = 1."""
