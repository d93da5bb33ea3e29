"""Independent test oracles for local factors, truncated Euler products,
the completed zeta function and zeta zero counts, kept out of the package."""
import cmath
import math

import numpy as np
from scipy.special import loggamma

from partialzeta.core import SINGULAR_FACTOR_EPS, PrimeDatum, log_product
from partialzeta.errors import SingularLocalFactorError
from partialzeta.lfunctions import riemann_zeta


def local_factor(p: PrimeDatum, s: complex) -> complex:
    """(1 - N(p)^{-s})^{-1}."""
    x = cmath.exp(-s * cmath.log(p.norm))
    denom = 1.0 - x
    if abs(denom) < SINGULAR_FACTOR_EPS:
        raise SingularLocalFactorError(f"local factor singular at norm={p.norm}, s={s}")
    return 1.0 / denom


# one log_product pass over the whole prime table per product, each prime
# twisted by its own complex exponential

def pass_log_zeta_P(sys, s, X):
    norms, _, _ = sys.arrays_up_to(X)
    return log_product(norms, 1.0, s)


def pass_log_zeta_Pn(sys, n, s, X):
    norms, _, order = sys.arrays_up_to(X)
    return log_product(norms[order == n], 1.0, s)


def pass_log_L(sys, j, s, X):
    """log L(s, chi_j) for the character k -> e^{2 pi i j k/#G} of Z/#G."""
    norms, classes, _ = sys.arrays_up_to(X)
    q = sys.group_order
    return log_product(norms, np.exp(2j * np.pi * ((j * classes) % q) / q), s)


def completed_zeta(s: complex) -> complex:
    """xi(s) = s(s-1)/2 * pi^{-s/2} Gamma(s/2) zeta(s); satisfies xi(s)=xi(1-s)."""
    s = complex(s)
    log_part = loggamma(s / 2) - (s / 2) * math.log(math.pi)
    return 0.5 * s * (s - 1.0) * cmath.exp(complex(log_part)) * riemann_zeta(s)


def riemann_siegel_theta(t: float) -> float:
    return float(loggamma(0.25 + 0.5j * t).imag) - 0.5 * t * math.log(math.pi)


def hardy_Z(t: float) -> float:
    """Rotated zeta on the critical line: real, vanishing at the zeta zeros."""
    return (cmath.exp(1j * riemann_siegel_theta(t))
            * riemann_zeta(0.5 + 1j * t)).real


def critical_line_zero_scan(T: float, step: float = 0.05) -> list[float]:
    """Independent oracle: sign changes of the rotated zeta on Re s = 1/2."""
    zeros = []
    t = max(step, 1.0)
    prev = hardy_Z(t)
    while t < T:
        t2 = min(t + step, T)
        cur = hardy_Z(t2)
        if prev == 0.0:
            zeros.append(t)
        elif prev * cur < 0:
            a, b = t, t2
            fa = prev
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = hardy_Z(mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        t, prev = t2, cur
    return zeros


def riemann_von_mangoldt(T: float) -> float:
    """Main-term estimate for the zero count of zeta below height T."""
    return T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e)) + 7.0 / 8.0
