"""Prime sieve and integer factorization.

Each call sieves the odd numbers to its own cutoff by Eratosthenes and
returns the array it built; nothing is kept between calls.  Requests
beyond the hard cap are refused rather than degraded.

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
# per CPU: a shorter segment does not pay for its thread (README, Euler
# products)
SEGMENT_MIN = 2**20


def primes_up_to(x: float) -> np.ndarray:
    """All rational primes <= x, ascending.  x may be any real but NaN."""
    if math.isnan(x):
        raise InvalidConfigError("prime cutoff is NaN")
    if x > SIEVE_CAP:
        raise BudgetExceededError(f"prime sieve capped at {SIEVE_CAP}, asked for {x}")
    if x < 2:  # before int(x), which -inf overflows
        return np.array([], dtype=np.int64)
    primes = np.flatnonzero(_odd_sieve(int(x))).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2  # index 0 stands for 1: the even prime takes its place
    return primes


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
