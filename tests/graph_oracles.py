"""Independent test oracles for cycle counts on graphs, kept out of the package."""
import numpy as np

from partialzeta.errors import InvalidConfigError
from partialzeta.graphs import MultiGraph


def _mobius(n: int) -> int:
    mu, x, p = 1, n, 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            mu = -mu
        p += 1
    if x > 1:
        mu = -mu
    return mu


def count_cycles(x: MultiGraph, m_len: int) -> tuple[int, int]:
    """(N_m, primitive class count) for closed backtrackless tail-less cycles.

    N_m = tr(T^m); primitive classes (up to rotation, orientations distinct)
    by Moebius inversion.
    """
    if m_len < 1:
        raise InvalidConfigError("cycle length must be >= 1")
    t = x.edge_matrix().astype(object)
    power = np.linalg.matrix_power(t, m_len)
    n_m = int(np.trace(power))
    prim = 0
    for d in range(1, m_len + 1):
        if m_len % d == 0:
            td = np.linalg.matrix_power(t, m_len // d)
            prim += _mobius(d) * int(np.trace(td))
    assert prim % m_len == 0
    return n_m, prim // m_len
