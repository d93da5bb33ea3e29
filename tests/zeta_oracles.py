"""Independent test oracles for local factors, truncated Euler products,
Hurwitz, L and g values, the completed zeta function and zeta zero counts,
kept out of the package."""
import cmath
import math

import numpy as np
from scipy.special import loggamma

from partialzeta.core import SINGULAR_FACTOR_EPS, exp_of_log, log_product
from partialzeta.errors import PoleAtOneError, SingularLocalFactorError
from partialzeta.frobenius import log_L, log_Z, log_zeta_Pn
from partialzeta.lfunctions import (_EM_COEFF, DirichletCharacter,
                                    _hurwitz_finite_at_one, hurwitz_zeta,
                                    trivial_character)


def _clog1p(z: np.ndarray) -> np.ndarray:
    """log(1+z) for complex arrays, stable for small |z|."""
    a, b = z.real, z.imag
    return 0.5 * np.log1p(2 * a + a * a + b * b) + 1j * np.arctan2(b, 1.0 + a)


def reference_log_product(norms, chi, s) -> complex:
    """The Euler-product kernel written with one fresh array per operation:
    the bit-for-bit reference for the in-place `log_product`."""
    if len(norms) == 0:
        return 0.0 + 0.0j
    x = np.exp(-s * np.log(norms)) * chi
    if np.any(np.abs(1.0 - x) < SINGULAR_FACTOR_EPS):
        raise SingularLocalFactorError(f"singular local factor at s={s}")
    total = complex(-np.sum(_clog1p(-x)))
    if total.real == math.inf:
        raise SingularLocalFactorError(f"local factor log not finite at s={s}")
    return total


# Hurwitz zeta and L(s, chi) with one complex exp per head term and one
# Hurwitz call per character: the bit-for-bit references for the factored
# exponentials of `hurwitz_zeta` and the shared columns of `dirichlet_L`

def reference_hurwitz_zeta(s, a):
    """Euler-Maclaurin evaluation of zeta(s, a), a > 0, s != 1.

    Broadcasts over arrays of s and a and returns an array of their
    broadcast shape; a scalar s and a give a Python complex.  Each point
    sums N = max(50, int(2|Im s|) + 1) head terms, so the points are
    grouped by N rather than padded to a common length.
    """
    s, a = np.broadcast_arrays(np.asarray(s, dtype=complex),
                               np.asarray(a, dtype=float))
    shape = s.shape
    s, a = s.ravel(), a.ravel()
    if np.any(np.abs(s - 1.0) < 1e-14):
        raise PoleAtOneError("hurwitz zeta has a pole at s = 1")
    N = np.maximum(50, (2 * np.abs(s.imag)).astype(np.int64) + 1)
    head = np.empty(s.shape, dtype=complex)
    # not np.unique, whose first call imports numpy.ma (about 16 ms per run)
    for n in sorted(set(N.tolist())):
        idx = np.flatnonzero(N == n)
        k = np.arange(n, dtype=float) + a[idx, None]
        # one complex work buffer per group: -s log k, then its exp, in place
        work = np.log(k, out=k).astype(complex)
        work *= -s[idx, None]
        head[idx] = np.exp(work, out=work).sum(axis=1)
    M = N + a
    lM = np.log(M)
    tail = np.exp((1.0 - s) * lM) / (s - 1.0) + 0.5 * np.exp(-s * lM)
    # correction terms B_{2j}/(2j)! * (s)_{2j-1} * M^{-s-2j+1}
    rising = s  # (s)_(1) = s
    power = np.exp((-s - 1.0) * lM)
    corr = np.zeros(s.shape, dtype=complex)
    for j, c in enumerate(_EM_COEFF):
        corr += c * rising * power
        if j + 1 < len(_EM_COEFF):
            rising = rising * ((s + 2 * j + 1) * (s + 2 * j + 2))
            power = power / (M * M)
    out = head + tail + corr
    return complex(out[0]) if shape == () else out.reshape(shape)


def reference_dirichlet_L(s, chi: DirichletCharacter):
    """Analytically continued L(s, chi) via Hurwitz zeta + Euler-Maclaurin.

    Broadcasts over an array of s with one Hurwitz call over all residues;
    a scalar s gives a Python complex.
    """
    z = np.asarray(s, dtype=complex)
    s = z.reshape(-1)
    m = chi.modulus
    out = np.empty_like(s)
    at_pole = np.abs(s - 1.0) < 1e-14
    if at_pole.any():
        if chi.is_trivial:
            raise PoleAtOneError("principal character: L(s) has a pole at s = 1")
        # pole terms cancel: sum chi(a) = 0 for nontrivial chi
        finite = _hurwitz_finite_at_one(chi.residues / m)
        out[at_pole] = np.sum(chi.values * finite) / m
    s = s[~at_pole]
    hz = reference_hurwitz_zeta(s[:, None], chi.residues / m)
    total = np.zeros_like(s)
    for j, v in enumerate(chi.values):
        total += v * hz[:, j]
    out[~at_pole] = np.exp(-s * math.log(m)) * total
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)



def reference_g(sys, s):
    """g = zeta^{q-1} prod_{p ram} (1 - p^{-s})^{q-1} / prod_j L(s, chi^j)
    over an array of s, one reference L call per factor."""
    q = sys.group_order
    num = reference_dirichlet_L(s, trivial_character()) ** (q - 1)
    for p in sys.ramified:
        num = num * (1.0 - np.exp(-s * math.log(p))) ** (q - 1)
    den = np.ones_like(s)
    for j in range(1, q):
        den = den * reference_dirichlet_L(s, sys.chi.power(j))
    return num / den

def local_factor(p, s: complex) -> complex:
    """(1 - N(p)^{-s})^{-1}."""
    x = cmath.exp(-s * cmath.log(p.norm))
    denom = 1.0 - x
    if abs(denom) < SINGULAR_FACTOR_EPS:
        raise SingularLocalFactorError(f"local factor singular at norm={p.norm}, s={s}")
    return 1.0 / denom


# one pass over the whole prime table per product, each prime of an L
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
    twist = np.exp(2j * np.pi * ((j * classes.astype(np.int64)) % q) / q)
    return reference_log_product(norms, twist, s)


# the truncated products from the package's logs, each with the zeta-core
# tail bound on |log(true/value)|; Z_P's is #G times it

def truncated_L(sys, j, s: complex, pol) -> tuple[complex, float]:
    value = exp_of_log(log_L(sys, j, s, pol))
    return value, pol.tail_bound(complex(s).real, sys.count_coeff())


def truncated_zeta_P(sys, s: complex, pol) -> tuple[complex, float]:
    value = exp_of_log(log_L(sys, 0, s, pol))
    return value, pol.tail_bound(complex(s).real, sys.count_coeff())


def truncated_zeta_Pn(sys, n: int, s: complex, pol) -> tuple[complex, float]:
    value = exp_of_log(log_zeta_Pn(sys, n, s, pol))
    return value, pol.tail_bound(complex(s).real, sys.count_coeff())


def truncated_Z(sys, s: complex, pol) -> tuple[complex, float]:
    value = exp_of_log(log_Z(sys, s, pol))
    tail = sys.group_order * pol.tail_bound(complex(s).real, sys.count_coeff())
    return value, tail


def riemann_zeta(s):
    return hurwitz_zeta(s, 1.0)


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
