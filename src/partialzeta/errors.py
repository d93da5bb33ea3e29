"""Exception hierarchy shared by all modules.

The CLI maps the three groups below onto its exit codes, so new error
conditions subclass one of them rather than raising bare ValueError:

- 2: InvalidConfigError (and InsufficientDataError)
- 3: DomainError (and SingularLocalFactorError, PoleAtOneError)
- 5: BudgetExceededError (and UnresolvedBoxError)
"""


class PartialZetaError(Exception):
    """Base class for all library errors."""


class InvalidConfigError(PartialZetaError):
    """Malformed backend parameters, characters, graphs or CLI configs."""


class DomainError(PartialZetaError):
    """Evaluation requested outside the stated domain of validity."""


class SingularLocalFactorError(DomainError):
    """A local Euler factor 1 - chi * N(p)^{-s} is numerically zero."""


class BudgetExceededError(PartialZetaError):
    """An enumeration or subdivision budget was exhausted."""


class UnresolvedBoxError(BudgetExceededError):
    """Argument-principle box subdivision bottomed out without an integer winding."""


class InsufficientDataError(InvalidConfigError):
    """Not enough cataloged singularity classes for a meaningful report."""


class PoleAtOneError(DomainError):
    """The Riemann zeta factor was evaluated at its pole s = 1."""
