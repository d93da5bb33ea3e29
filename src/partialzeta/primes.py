"""Cached prime sieve and integer factorization.

A single module-level Eratosthenes sieve over the odd numbers grows on
demand (powers of two); callers get copies, never the cached array.
Requests beyond the hard cap are refused rather than degraded.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError

SIEVE_CAP = 10**7

_primes: np.ndarray = np.array([], dtype=np.int64)
_sieved_to = 0


def primes_up_to(x: float) -> np.ndarray:
    """All rational primes <= x, ascending.  x may be any real."""
    global _primes, _sieved_to
    if x > SIEVE_CAP:
        raise BudgetExceededError(f"prime sieve capped at {SIEVE_CAP}, asked for {x}")
    n = int(x)
    if n < 2:
        return np.array([], dtype=np.int64)
    if n > _sieved_to:
        target = max(64, n)
        # grow geometrically so repeated slightly-larger requests are cheap
        while target < min(SIEVE_CAP, 2 * _sieved_to):
            target *= 2
        target = min(target, SIEVE_CAP)
        odd = np.ones((target + 1) // 2, dtype=bool)  # index i is 2i + 1
        for p in range(3, math.isqrt(target) + 1, 2):
            if odd[p // 2]:
                odd[p * p // 2 :: p] = False
        _primes = np.flatnonzero(odd).astype(np.int64, copy=False)
        _primes *= 2
        _primes += 1
        _primes[0] = 2  # index 0 stands for 1: the even prime takes its place
        _sieved_to = target
    idx = np.searchsorted(_primes, n, side="right")
    return _primes[:idx].copy()


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of n, ascending in p; empty for n < 2.

    Trial division: the package factors only moduli and group orders.
    """
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out
