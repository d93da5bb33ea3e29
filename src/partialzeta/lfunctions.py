"""Dirichlet characters and numerically continued L-functions.

L(s, chi) is evaluated through the Hurwitz-zeta decomposition
L = m^{-s} sum_a chi(a) zeta(s, a/m) with Euler-Maclaurin summation,
which continues everything we need to the strip (target accuracy 1e-10
for |Im s| <= 100).

`hurwitz_zeta`, `dirichlet_L` and the closed-form g built on them
(`numberfield.g_closed_form`) broadcast over numpy arrays of s.  A scalar is
evaluated as a batch of one through the same code and returned as a Python
complex, so batched and pointwise values agree bit for bit.  `dirichlet_L`
takes a sequence of characters too, and evaluates all of them from the
same Hurwitz calls over the union of their columns a = r/m.  `hardy_theta`
rotates L(1/2 + it, chi) of a primitive chi onto the real axis, Hardy's
Z(t, chi), for the zero scan's line pass.

Factored exponentials.  Each Euler-Maclaurin head term exp(-s log(k+a)) is
formed as E * cis, with E = exp(-Re s log(k+a)) computed once per distinct
(Re s, a) and cis = exp(-i Im s log(k+a)) once per distinct (Im s, a) of a
batch; the tail's three exponentials share one cis, exp(-i Im s log M).
The points of an argument-principle scan lie on a few box edges, so most of
them share a real part or a height with others.  This gives the bits of one
complex exp per term because:

- numpy's complex exp is the C library's cexp, and glibc's cexp returns
  exactly (exp(x) cos y, exp(x) sin y) from one sincos of y when x <= 709;
  above that it rescales, and the identity fails;
- so exp(x + 0j).real is libm's exp(x), exp(0 + iy) is (cos y, sin y), and
  E * cis, taken componentwise, is (E cos y, E sin y);
- -Re s * log and -Im s * log are the products the complex multiply by -s
  forms, since the log's zero imaginary part adds only a signed zero.

Both factors must come from the complex exp.  numpy's float64 exp (SIMD on
AVX-512) differs from libm's exp in the last bit on a few percent of
arguments, and its float cos and sin agree with libm only by way of how
numpy dispatches them.  The exponent stays below 709 wherever
Re s > -130 and |Im s| <= 100, so there `hurwitz_zeta` gives the bits of
one complex exp per term (`reference_hurwitz_zeta` in
tests/zeta_oracles.py); outside it the two may differ in the last bits.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import CEXP_REAL_MAX, roots_of_unity
from .errors import InvalidConfigError, PoleAtOneError
from .primes import factorize

# |Im s| up to which the L-values reach the target accuracy; beyond it the
# head's 2|Im s| + 1 terms also grow without bound
HEIGHT_MAX = 100.0
# hurwitz_zeta and the principal L raise PoleAtOneError this close to s = 1
POLE_RADIUS = 1e-14
# head terms per hurwitz_zeta call of dirichlet_L, N for each (point, column)
# pair: large moduli and heights go in blocks of points (2^16 pairs at N = 50)
_HURWITZ_BLOCK = 50 * 2 ** 16
# B_2, B_4, ..., B_10: Euler-Maclaurin corrections to the 10th Bernoulli term
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66)]
_EM_COEFF = [float(b) / math.factorial(2 * (j + 1))
             for j, b in enumerate(_BERNOULLI)]
# log_gamma takes Stirling's series at z + _GAMMA_SHIFT, where the first
# omitted term, B_12 / (132 w^11), is below 2e-14
_GAMMA_SHIFT = 10


def _distinct(x: np.ndarray, a: np.ndarray):
    """The distinct pairs (x, a), as the real and imaginary parts of a
    complex array, and each pair's row among them.  np.unique with
    return_inverse does not import numpy.ma."""
    key = np.empty(len(x), dtype=complex)
    key.real, key.imag = x, a
    return np.unique(key, return_inverse=True)


def _scale(cis: np.ndarray, E: np.ndarray) -> np.ndarray:
    """cis = cos y + i sin y times real E = exp(x), in place, as the pair
    (E cos y, E sin y): exp(x + iy) as cexp forms it."""
    cis.real *= E
    cis.imag *= E
    return cis


def hurwitz_zeta(s, a):
    """Euler-Maclaurin evaluation of zeta(s, a), a > 0, s != 1.

    Broadcasts over arrays of s and a and returns an array of their
    broadcast shape; a scalar s and a give a Python complex.  Each point
    sums N = max(50, int(2|Im s|) + 1) head terms, so the points are
    grouped by N rather than padded to a common length.

    Every exp(-s log k) is formed as exp(-Re s log k) * exp(-i Im s log k),
    each factor once per distinct (Re s, a) or (Im s, a) of an N group;
    the module docstring says why the bits do not move.
    """
    s, a = np.asarray(s, dtype=complex), np.asarray(a, dtype=float)
    scalar = s.ndim == a.ndim == 0
    # 1-d at least: 0-d operands would take numpy's scalar arithmetic
    s, a = np.atleast_1d(s, a)
    if np.any(np.abs(s - 1.0) < POLE_RADIUS):
        raise PoleAtOneError("hurwitz zeta has a pole at s = 1")
    N = np.maximum(50, (2 * np.abs(s.imag)).astype(np.int64) + 1)
    M = N + a  # the broadcast shape; what depends on s alone keeps s's
    # the head sums over the flattened broadcast, one N group at a time
    S, A, NN = (np.empty(M.shape, dtype=x.dtype) for x in (s, a, N))
    S[...], A[...], NN[...] = s, a, N
    S, A, NN = S.ravel(), A.ravel(), NN.ravel()
    head = np.empty(M.size, dtype=complex)
    cis_M = np.empty(M.size, dtype=complex)  # exp(-i Im s log M)
    # not np.unique, which imports numpy.ma without return_inverse (16 ms)
    for n in sorted(set(NN.tolist())):
        idx = np.flatnonzero(NN == n)
        sg, ag = S[idx], A[idx]
        k = np.arange(n + 1, dtype=float)  # k = n is M - a
        pairs, row = _distinct(sg.real, ag)
        E = np.zeros((len(pairs), n), dtype=complex)
        E.real = np.log(k[:n] + pairs.imag[:, None])
        E.real *= -pairs.real[:, None]
        E = np.exp(E, out=E).real
        pairs, row_im = _distinct(sg.imag, ag)
        cis = np.zeros((len(pairs), n + 1), dtype=complex)
        cis.imag = np.log(k + pairs.imag[:, None])
        cis.imag *= -pairs.real[:, None]
        np.exp(cis, out=cis)
        head[idx] = _scale(cis[:, :n][row_im], E[row]).sum(axis=1)
        cis_M[idx] = cis[row_im, n]
    head, cis_M = head.reshape(M.shape), cis_M.reshape(M.shape)
    lM = np.log(M)

    def exp(x):
        """exp(x - i Im s log M) for real x."""
        return _scale(cis_M.copy(), np.exp(x.astype(complex)).real)

    tail = exp((1.0 - s.real) * lM) / (s - 1.0) + 0.5 * exp(-s.real * lM)
    # correction terms B_{2j}/(2j)! * (s)_{2j-1} * M^{-s-2j+1}
    rising = s  # (s)_(1) = s
    power = exp((-s.real - 1.0) * lM)
    M2 = M * M
    corr = np.zeros(M.shape, dtype=complex)
    for j, c in enumerate(_EM_COEFF):
        corr += c * rising * power
        if j + 1 < len(_EM_COEFF):
            rising = rising * ((s + 2 * j + 1) * (s + 2 * j + 2))
            power = power / M2
    out = head + tail + corr
    return complex(out[0]) if scalar else out


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

def dirichlet_L(s, chi):
    """Analytically continued L(s, chi) via Hurwitz zeta + Euler-Maclaurin.

    chi is one character or a sequence of characters.  Broadcasts over an
    array of s; a scalar s and one character give a Python complex, and a
    sequence gives an array with one leading row per character.  All the
    L-values come from Hurwitz calls over the union of the characters'
    columns a = r/m, one call per block of points whose head terms, N for
    each (point, column) pair, pass _HURWITZ_BLOCK by at most one point's;
    each L sums its residues in order, as alone.
    """
    chis = [chi] if isinstance(chi, DirichletCharacter) else list(chi)
    z = np.asarray(s, dtype=complex)
    s = z.reshape(-1)
    out = np.empty((len(chis), len(s)), dtype=complex)
    cols = [(chi_j.residues / chi_j.modulus).tolist() for chi_j in chis]
    a = sorted(set().union(*cols))
    at_pole = np.abs(s - 1.0) < POLE_RADIUS
    # m^{-s} zeta(s, a) is 0 * inf where a^{-s} overflows for the least a;
    # there Re s > 709 / log m, and chi(n) n^{-s} to n = 64 is L to a double
    far = -s.real * math.log(a[0]) > CEXP_REAL_MAX
    for row, chi_j in zip(out, chis):
        if at_pole.any():
            if chi_j.is_trivial:
                raise PoleAtOneError(
                    "principal character: L(s) has a pole at s = 1")
            # pole terms cancel: sum chi(a) = 0 for nontrivial chi
            m = chi_j.modulus
            finite = _hurwitz_finite_at_one(chi_j.residues / m)
            row[at_pole] = np.sum(chi_j.values * finite) / m
        if far.any():
            row[far] = np.exp(-np.outer(s[far], np.log(np.arange(1, 65)))) @ [
                chi_j.value(k) for k in range(1, 65)]
    keep = ~(at_pole | far)
    s = s[keep]
    col = {x: j for j, x in enumerate(a)}
    # the running count of head terms, N = max(50, int(2|Im s|) + 1) per pair
    terms = np.cumsum(np.maximum(50, (2 * np.abs(s.imag)).astype(np.int64) + 1)) * len(a)
    cuts = np.flatnonzero(np.diff(terms // _HURWITZ_BLOCK)) + 1
    hz = np.concatenate([hurwitz_zeta(block[:, None], np.array(a))
                         for block in np.split(s, cuts)])
    for row, chi_j, cols_j in zip(out, chis, cols):
        total = np.zeros_like(s)
        for x, v in zip(cols_j, chi_j.values):
            total += v * hz[:, col[x]]
        row[keep] = np.exp(-s * math.log(chi_j.modulus)) * total
    if isinstance(chi, DirichletCharacter):
        return complex(out[0, 0]) if z.ndim == 0 else out[0].reshape(z.shape)
    return out.reshape((len(chis),) + z.shape)


def log_gamma(z) -> np.ndarray:
    """log Gamma(z) for Re z > 0, elementwise over an array of z, on the
    branch continuous from the positive axis: Stirling's series with the
    corrections B_2 ... B_10 at w = z + _GAMMA_SHIFT, less the principal
    logs of z, ..., w - 1, each of imaginary part in (-pi/2, pi/2)."""
    z = np.asarray(z, dtype=complex)
    w = z + _GAMMA_SHIFT
    out = (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi)
    for j, b in enumerate(_BERNOULLI, 1):
        out += float(b) / (2 * j * (2 * j - 1)) / w ** (2 * j - 1)
    for k in range(_GAMMA_SHIFT):
        out -= np.log(z + k)
    return out


def hardy_theta(t, chi: DirichletCharacter) -> np.ndarray:
    """theta(t, chi), elementwise over an array of t, for which Hardy's
    Z(t, chi) = e^{i theta} L(1/2 + it, chi) is real.

    For chi primitive mod m with chi(-1) = (-1)^a, Lambda(s) = (m/pi)^{(s+a)/2}
    Gamma((s+a)/2) L(s, chi) = eps Lambda(1 - s, conj chi), with the root
    number eps = tau(chi) / (i^a sqrt m) from the Gauss sum tau(chi)
    (Davenport, Multiplicative Number Theory, ch. 9); so
    theta = (t/2) log(m/pi) + Im log Gamma((1/2 + a + it)/2) - arg(eps)/2.
    |tau(chi)| = sqrt m exactly when chi is primitive; any other chi raises
    InvalidConfigError, as its rotated L need not be real.
    """
    m = chi.modulus
    tau = complex(np.sum(chi.values * np.exp(2j * math.pi * chi.residues / m)))
    if abs(abs(tau) ** 2 - m) > 1e-9 * m:
        raise InvalidConfigError(f"{chi!r} is not primitive")
    a = 0 if chi.exponent(-1) == 0 else 1
    t = np.asarray(t, dtype=float)
    return (0.5 * t * math.log(m / math.pi)
            + log_gamma(0.25 + 0.5 * a + 0.5j * t).imag
            - 0.5 * cmath.phase(tau / (1j ** a * math.sqrt(m))))
