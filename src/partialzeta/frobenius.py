"""The truncated products over Frobenius-class slices and their identities.

zeta_{P_n}(s) sums the untwisted slice sums of the primes of order n, and
L_P(s, chi_j) twists every slice by the character chi_j of G = Z/#G, which
is its index j (`core.ClassSums`): j = 0 gives zeta_P, and
Z_P(s) = prod_j L_P(s, chi_j).  Only abelian (one-dimensional) characters
are supported; every worked instantiation (quadratic/cyclic fields, cyclic
graph covers, composite q1*q2 groups) factors through them.  The two
residuals check the paper's identities over one truncated prime set.
"""
from __future__ import annotations

from .core import TruncationPolicy, ZetaSystem


def log_zeta_Pn(sys: ZetaSystem, n: int, s, pol: TruncationPolicy,
                twists: bool = True):
    """log zeta_{P_n}(s); twists=False where no L is read at s, as at q s."""
    sums = sys.class_sums(pol.cutoff, s)
    return sum((sums.term(0, key, twists) for key in sums.slices
                if key[1] == n), 0j)


def log_L(sys: ZetaSystem, j: int, s, pol: TruncationPolicy):
    """log L_P(s, chi_j), j taken mod #G; log zeta_P(s) at j = 0."""
    sums = sys.class_sums(pol.cutoff, s)
    return sum((sums.term(j, key) for key in sums.slices), 0j)


def log_Z(sys: ZetaSystem, s, pol: TruncationPolicy):
    """log of prod_j L_P(s, chi_j) over every character of the group."""
    return sum(log_L(sys, j, s, pol) for j in range(sys.group_order))


def zp_factorization_residual(sys: ZetaSystem, s: complex, X: float) -> float:
    """| log Z_P(s) - sum_{n | #G} (#G/n) log zeta_{P_n}(n s) | over one prime set."""
    pol = TruncationPolicy(X)
    q = sys.group_order
    lhs = log_Z(sys, s, pol)
    rhs = sum((q // n) * log_zeta_Pn(sys, n, n * s, pol, False)
              for n in range(1, q + 1) if q % n == 0)
    return abs(lhs - rhs)


def feq_residual(sys: ZetaSystem, s: complex, X: float) -> float:
    """Residual of zeta_{P_q}(s)^q / zeta_{P_q}(qs) = zeta_P(s)^q / Z_P(s)."""
    q = sys.group_order
    pol = TruncationPolicy(X)
    lhs = (q * log_zeta_Pn(sys, q, s, pol)
           - log_zeta_Pn(sys, q, q * s, pol, twists=False))
    rhs = q * log_L(sys, 0, s, pol) - log_Z(sys, s, pol)
    return abs(lhs - rhs)
