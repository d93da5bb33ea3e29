"""Characters of finite cyclic groups and the truncated L- and Z-products.

Only abelian (one-dimensional) characters are supported; every worked
instantiation (quadratic/cyclic fields, cyclic graph covers, composite
q1*q2 groups) factors through them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TruncationPolicy, ZetaSystem, log_zeta_Pn, roots_of_unity
from .errors import InvalidConfigError


@dataclass(frozen=True)
class CyclicGroup:
    order: int

    def __post_init__(self):
        if self.order < 2:
            raise InvalidConfigError("cyclic group order must be >= 2")

    def divisors(self) -> list[int]:
        return [n for n in range(1, self.order + 1) if self.order % n == 0]


@dataclass(frozen=True)
class Character:
    """Character k -> exp(2*pi*i*j*k/order) of Z/order."""

    group: CyclicGroup
    index: int


def _chi_on_classes(chi: Character, classes: np.ndarray) -> np.ndarray:
    m = chi.group.order
    return roots_of_unity(m)[(chi.index * classes) % m]


def log_L(sys: ZetaSystem, chi: Character, s, pol: TruncationPolicy):
    sums = sys.class_sums(pol.cutoff, s)
    keys = list(sums.slices)
    w = _chi_on_classes(chi, np.array([c for c, _ in keys], dtype=np.int64))
    return sum((sums.term(complex(wk), key) for wk, key in zip(w, keys)), 0j)


def log_Z(sys: ZetaSystem, s, pol: TruncationPolicy):
    """log of prod_j L_P(s, chi_j) over every character of the group."""
    g = CyclicGroup(sys.group_order)
    return sum(log_L(sys, Character(g, j), s, pol) for j in range(g.order))


def zp_factorization_residual(sys: ZetaSystem, s: complex, X: float) -> float:
    """| log Z_P(s) - sum_{n | #G} (#G/n) log zeta_{P_n}(n s) | over one prime set."""
    pol = TruncationPolicy(X)
    lhs = log_Z(sys, s, pol)
    g = CyclicGroup(sys.group_order)
    rhs = sum((sys.group_order // n) * log_zeta_Pn(sys, n, n * s, pol, False)
              for n in g.divisors())
    return abs(lhs - rhs)

