"""The composite-order functional equation for #G = q1*q2 over the
truncated products, with the subgroup products Z_P^{(H)} summed from log_L.
"""
from partialzeta.core import TruncationPolicy
from partialzeta.errors import InvalidConfigError
from partialzeta.frobenius import log_L, log_Z, log_zeta_Pn
from partialzeta.primes import factorize


def subgroup_character_indices(group_order: int, subgroup_order: int) -> list[int]:
    """Indices j of Z/group_order characters forming the dual of the order-
    subgroup quotient, i.e. multiples of group_order/subgroup_order."""
    if group_order % subgroup_order != 0:
        raise InvalidConfigError("subgroup order must divide the group order")
    step = group_order // subgroup_order
    return [j * step for j in range(subgroup_order)]


def composite_feq_residual(sys, s: complex, X: float) -> float:
    """Residual of the composite-order functional equation for #G = q1*q2."""
    n = sys.group_order
    fac = factorize(n)
    if list(fac.values()) != [1, 1]:
        raise InvalidConfigError(
            f"group order {n} is not a product of two distinct primes")
    q1, q2 = fac
    pol = TruncationPolicy(X)
    f = lambda arg: log_zeta_Pn(sys, n, arg, pol, twists=arg == s)
    # log Z_P^{(H)} for the subgroup H of order h
    log_Z_H = lambda h: sum(log_L(sys, j, s, pol)
                            for j in subgroup_character_indices(n, h))
    lhs = f(n * s) + n * f(s) - q2 * f(q1 * s) - q1 * f(q2 * s)
    rhs = (log_Z(sys, s, pol) + n * log_L(sys, 0, s, pol)
           - q2 * log_Z_H(q1) - q1 * log_Z_H(q2))
    return abs(lhs - rhs)
