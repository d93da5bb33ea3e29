"""Cached prime sieve and integer factorization.

A single module-level Eratosthenes sieve over the odd numbers grows on
demand (powers of two); callers get copies, never the cached array.
Requests beyond the hard cap are refused rather than degraded.

The base primes up to sqrt(target) are sieved alone; then each thread
(`core.in_threads`) takes a segment of the odd numbers and strikes out,
for every base prime p, its odd multiples from p^2 on within the segment.
It strikes the entries the single loop strikes, so the array is the same.
"""
from __future__ import annotations

import math

import numpy as np

from .core import in_threads
from .errors import BudgetExceededError, InvalidConfigError

SIEVE_CAP = 10**7
# the sieve is struck out in segments of at least this many odd numbers, one
# per CPU; on a 2-vCPU host two segments took 4.6 ms at 2^21 odd numbers
# against 7.0 ms for one, and were no faster at 2^20
SEGMENT_MIN = 2**20

_primes: np.ndarray = np.array([], dtype=np.int64)
_sieved_to = 0


def primes_up_to(x: float) -> np.ndarray:
    """All rational primes <= x, ascending.  x may be any real but NaN."""
    global _primes, _sieved_to
    if math.isnan(x):
        raise InvalidConfigError("prime cutoff is NaN")
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
        _primes = np.flatnonzero(_odd_sieve(target)).astype(np.int64, copy=False)
        _primes *= 2
        _primes += 1
        _primes[0] = 2  # index 0 stands for 1: the even prime takes its place
        _sieved_to = target
    idx = np.searchsorted(_primes, n, side="right")
    return _primes[:idx].copy()


def _odd_sieve(target: int) -> np.ndarray:
    """odd[i] is whether 2i + 1 <= target is 1 or a prime."""
    odd = np.ones((target + 1) // 2, dtype=bool)  # index i is 2i + 1
    root = math.isqrt(target)
    head = odd[:root // 2 + 1]
    for p in range(3, root + 1, 2):
        if head[p // 2]:
            head[p * p // 2 :: p] = False
    base = (2 * np.flatnonzero(head[1:]) + 3).tolist()

    def strike(lo, hi):
        for p in base:
            # the first index at or past lo of p^2, p^2 + 2p, ...
            start = p * p // 2
            if start < lo:
                start += (lo - start + p - 1) // p * p
            odd[start:hi:p] = False

    in_threads(strike, len(odd), SEGMENT_MIN)
    return odd


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
