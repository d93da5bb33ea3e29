"""Dirichlet characters and numerically continued L-functions.

L(s, chi) is evaluated through the Hurwitz-zeta decomposition
L = m^{-s} sum_a chi(a) zeta(s, a/m) with Euler-Maclaurin summation,
which continues everything we need to the strip (target accuracy 1e-10
for |Im s| <= 100).

`hurwitz_zeta`, `dirichlet_L` and the closed-form g built on them
(`numberfield.g_closed_form`) broadcast over numpy arrays of s.  A scalar is
evaluated as a batch of one through the same code and returned as a Python
complex, so batched and pointwise values agree bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import roots_of_unity
from .errors import InvalidConfigError, PoleAtOneError
from .primes import factorize

# B_2, B_4, ..., B_10: Euler-Maclaurin corrections to the 10th Bernoulli term
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66)]
_EM_COEFF = [float(b) / math.factorial(2 * (j + 1))
             for j, b in enumerate(_BERNOULLI)]


def hurwitz_zeta(s, a):
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


def _hurwitz_finite_at_one(a: np.ndarray) -> np.ndarray:
    """lim_{s->1} [zeta(s, a) - 1/(s-1)], elementwise over a; the pole term
    is dropped so the poles can cancel across a nontrivial character sum."""
    N = 50
    k = np.arange(N, dtype=float) + a[:, None]
    head = np.sum(1.0 / k, axis=1)
    M = N + a
    tail = -np.log(M) + 0.5 / M
    rising = 1.0
    power = M**-2.0
    corr = np.zeros(a.shape)
    for j, c in enumerate(_EM_COEFF):
        corr += c * rising * power
        if j + 1 < len(_EM_COEFF):
            rising *= (2 * j + 2) * (2 * j + 3)
            power = power / (M * M)
    return head + tail + corr


# ---------------------------------------------------------------------------
# Kronecker symbol and Dirichlet characters
# ---------------------------------------------------------------------------

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos of n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a/n) for odd n > 0
    result = sign
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fundamental_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d)) for square-free d != 0, 1."""
    if d in (0, 1):
        raise InvalidConfigError("d must be a square-free integer other than 0, 1")
    if any(e > 1 for e in factorize(abs(d)).values()):
        raise InvalidConfigError(f"d={d} is not square-free")
    return d if d % 4 == 1 else 4 * d


def is_primitive_root(g: int, m: int) -> bool:
    """Whether g generates (Z/m)^* for a prime m."""
    phi = m - 1
    return g % m != 0 and all(pow(g, phi // f, m) != 1 for f in factorize(phi))


class DirichletCharacter:
    """Character mod m with values recorded as exponents: chi(a) = e^{2 pi i exps[a]/order}."""

    def __init__(self, modulus: int, order: int, exps: dict[int, int]):
        self.modulus = modulus
        self.order = order
        self.exps = {a % modulus: e % order for a, e in exps.items()}
        for a in range(1, modulus):
            if math.gcd(a, modulus) == 1 and a not in self.exps:
                raise InvalidConfigError(f"character table misses residue {a}")
        # a in [1, m] with chi(a) != 0, and chi(a): the terms of dirichlet_L
        self.residues = np.array([a for a in range(1, modulus + 1)
                                  if a % modulus in self.exps])
        self.values = np.array([self.value(a) for a in self.residues.tolist()])

    # -- values -------------------------------------------------------
    def exponent(self, n: int) -> int | None:
        n %= self.modulus
        return self.exps.get(n)

    def value(self, n: int) -> complex:
        e = self.exponent(n)
        if e is None:
            return 0.0
        return complex(roots_of_unity(self.order)[e])

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps.values())

    def power(self, j: int) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, self.order,
                                  {a: (e * j) % self.order for a, e in self.exps.items()})

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter)
                and self.modulus == other.modulus and self.order == other.order
                and self.exps == other.exps)

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, order {self.order})"


def kronecker_character(d: int) -> DirichletCharacter:
    """The real character n -> (D/n) attached to Q(sqrt(d))."""
    D = fundamental_discriminant(d)
    m = abs(D)
    exps = {}
    for a in range(1, m + 1):
        if math.gcd(a, m) != 1:
            continue
        v = kronecker_symbol(D, a)
        exps[a % m] = 0 if v == 1 else 1
    return DirichletCharacter(m, 2, exps)


def prime_order_character(modulus: int, order: int,
                          generator: int | None = None) -> DirichletCharacter:
    """Order-`order` character mod an odd prime, chi(generator) = e^{2 pi i/order}."""
    if modulus < 3 or factorize(modulus) != {modulus: 1}:
        raise InvalidConfigError("modulus must be an odd prime")
    if (modulus - 1) % order != 0:
        raise InvalidConfigError(f"order {order} does not divide {modulus - 1}")
    g = generator if generator is not None else next(
        a for a in range(2, modulus) if is_primitive_root(a, modulus))
    exps = {}
    x = 1
    for t in range(modulus - 1):
        exps[x] = t % order
        x = x * g % modulus
    if len(exps) != modulus - 1:
        raise InvalidConfigError(f"{g} is not a primitive root mod {modulus}")
    return DirichletCharacter(modulus, order, exps)


def trivial_character() -> DirichletCharacter:
    """Modulus-1 character: L(s, chi) is the Riemann zeta function."""
    return DirichletCharacter(1, 1, {0: 0})


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------

def dirichlet_L(s, chi: DirichletCharacter):
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
    hz = hurwitz_zeta(s[:, None], chi.residues / m)
    total = np.zeros_like(s)
    for j, v in enumerate(chi.values):
        total += v * hz[:, j]
    out[~at_pole] = np.exp(-s * math.log(m)) * total
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def riemann_zeta(s):
    return hurwitz_zeta(s, 1.0)
