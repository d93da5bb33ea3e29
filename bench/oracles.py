"""Independent checks of the CLI's numbers with mpmath and a separate sieve.

All three target the quadratic field Q(sqrt 5): its character is
chi_5 = (5/.), the only ramified prime is 5, P_1 are the split primes
(p = +-1 mod 5) and P_2 the inert ones (p = +-2 mod 5).
"""
from __future__ import annotations

import cmath
import json
import math

import mpmath
import numpy as np

CHI5 = [0, 1, -1, -1, 1]  # chi_5(n) for n mod 5, as mpmath.dirichlet takes it
GRID_TOL = 1e-8     # Euler-Maclaurin g targets 1e-10; the products are exact
ZERO_TOL = 1e-8     # Newton refinement stops at steps below 1e-11
GRID_ROW_STRIDE = 9  # mpmath g costs ~15 ms, so check every 9th grid row

mpmath.mp.dps = 25


def _g(s: complex) -> complex:
    """g(s) = zeta(s) (1 - 5^-s) / L(s, chi_5) for the quadratic field, q = 2."""
    z = mpmath.mpc(s.real, s.imag)
    return complex(mpmath.zeta(z) * (1 - mpmath.power(5, -z))
                   / mpmath.dirichlet(z, CHI5))


def _inert_primes(x: float) -> np.ndarray:
    n = int(x)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    p = np.nonzero(mask)[0]
    return p[np.isin(p % 5, (2, 3))].astype(float)


def grid_error(output: str, cutoff: float) -> float:
    """Worst deviation of printed log f(s)^2 = log zeta_{P_2}(2s) + log g(s)
    from its recomputation on every GRID_ROW_STRIDE-th row of the CSV."""
    log_p = np.log(_inert_primes(cutoff))
    rows = output.strip().splitlines()[1::GRID_ROW_STRIDE]
    worst = 0.0
    for row in rows:
        re, im, log_abs, arg = (float(t) for t in row.split(","))
        s = complex(re, im)
        x = np.exp(-2 * s * log_p)
        exact = complex(-np.sum(np.log(1.0 - x))) + cmath.log(_g(s))
        d_arg = abs(arg - exact.imag) % (2 * math.pi)
        worst = max(worst, abs(log_abs - exact.real),
                    min(d_arg, 2 * math.pi - d_arg))
    return worst


def sieve_tail_slack(output: str, s: complex) -> float:
    """min over zeta_P and Z_P of printed tail / actual |log(exact/value)|.

    zeta_P(s) = zeta(s) (1 - 5^-s) and Z_P(s) = zeta_P(s) L(s, chi_5); a
    value below 1 means the printed tail bound does not hold.
    """
    z = mpmath.mpc(s.real, s.imag)
    zeta_p = mpmath.zeta(z) * (1 - mpmath.power(5, -z))
    exact = {"zeta_P": zeta_p, "Z_P": zeta_p * mpmath.dirichlet(z, CHI5)}
    entry = json.loads(output)["results"][0]
    slack = math.inf
    for key, value in exact.items():
        v = entry[key]["value"]
        printed = mpmath.mpc(float(v["re"]), float(v["im"]))
        err = float(abs(mpmath.log(value / printed)))
        slack = min(slack, float(entry[key]["tail"]) / max(err, 1e-300))
    return slack


def zeta_zeros_below(height: float) -> list[complex]:
    zeros, k = [], 1
    while True:
        z = complex(mpmath.zetazero(k))
        if z.imag >= height:
            return zeros
        zeros.append(z)
        k += 1


def zeta_zero_check(points: list[list[float]], height: float) -> tuple[float, int]:
    """(largest distance from the catalog's order +1 points on Re s = 1/2 to
    the nearest zeta zero, number of zeta zeros below the height that no
    such point is within ZERO_TOL of).

    g = zeta (1 - 5^-s) / L(s, chi_5), so its zeros on the line are exactly
    the zeta zeros; the distance checks each cataloged zero, the count
    checks that the catalog is complete.
    """
    on_line = [complex(re, im) for re, im, order in points
               if order == 1 and abs(re - 0.5) < 1e-6]
    zeros = zeta_zeros_below(height + 1.0)
    err = max((min(abs(p - z) for z in zeros) for p in on_line), default=0.0)
    missed = sum(1 for z in zeros if z.imag < height
                 and min((abs(p - z) for p in on_line), default=math.inf) > ZERO_TOL)
    return err, missed
