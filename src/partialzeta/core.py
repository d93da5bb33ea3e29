"""Prime tables, truncated Euler products and the subset zeta functions.

All truncated products are accumulated in log space (complex, principal
branch per factor) and exponentiated at the end; every public operation
returns the value together with a tail bound on |log(true/value)|.

The products over one prime table differ only in which Frobenius classes
they keep and in the root of unity each class is twisted by.  So the table
is split once per cutoff into (frob_class, frob_order) slices, and at each
point s every slice sum -log(1 - w norm^{-s}) is computed once and shared
by zeta_P, every zeta_{P_n} and every L(s, chi_j) at that point.

`log_product`, the kernel under all of them, works in place: it writes
into a few preallocated arrays instead of a fresh array per operation.  On
tables of ~10^5 primes much of the cost of fresh arrays was page faults,
not arithmetic.  It takes a batch of points s, a 1-d array (a scalar is a
batch of one), and shares between them the log of the norms and, among
points of one height, the phase:

- each point of a shared height forms norm^{-s} as
  exp(-Re s log p) * (cos y, sin y), with y = -Im s log p; the real factor
  is numpy's complex exp of a real argument and the phase table
  exp(0 + iy) is computed once per height;
- glibc's cexp forms exp(x + iy) as exactly that pair of products for
  x <= 709 (see the `lfunctions` module docstring, and
  `TestLibmPrecondition` in the tests), so this is the bits of one complex
  exp per point, at the cost of a real one;
- a height that only one point of the batch has, or a point the identity
  does not cover, takes one complex exp, and needs no phase table;
- a real-dtype batch stays in float arithmetic throughout.

The rest runs per point over the whole slice, with the same floating-point
operations in the same order as the one-array-per-operation form, down to
numpy's pairwise complex sum, so every point's sum is bit-for-bit that of
`reference_log_product` in the tests, which check it on real and complex
s, scalar and per-prime chi, up to 4e5 primes and random batches.  The 63
points of the bench `continue --grid` share 7 heights.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError, InvalidConfigError, SingularLocalFactorError

SINGULAR_FACTOR_EPS = 1e-15
# glibc's cexp(x + iy) is (exp(x) cos y, exp(x) sin y) up to this x; above
# it rescales
CEXP_REAL_MAX = 709.0
# points whose slice sums a system keeps: every point of one feq-check or
# composite functional-equation residual (s, q1 s, q2 s, n s) fits
POINT_CACHE = 8

# one row per prime; a system's prime table is sorted by (norm, id)
PRIME_DTYPE = np.dtype([("norm", "f8"), ("id", "i8"), ("frob_class", "i8"),
                        ("frob_order", "i8")])


@dataclass(frozen=True, order=True)
class PrimeDatum:
    """One abstract prime: a norm and a Frobenius conjugacy-class label."""

    norm: float
    id: int
    frob_class: int = 0
    frob_order: int = 1

    def __post_init__(self):
        if not self.norm > 1:
            raise InvalidConfigError(f"prime norm must exceed 1, got {self.norm}")
        if self.frob_order < 1:
            raise InvalidConfigError("frob_order must be a positive integer")


@dataclass
class TruncationPolicy:
    """Cutoff of truncated Euler products and their certified tail bound."""

    cutoff: float

    def __post_init__(self):
        # x^{-sigma0} in the bound needs x > 1; inf passes, the sieve cap
        # refuses it
        if not self.cutoff > 1:
            raise InvalidConfigError(f"cutoff must exceed 1, got {self.cutoff}")

    def tail_bound(self, sigma0: float, count_coeff: float = 1.0) -> float:
        """Bound on sum_{norm > X} norm^{-sigma0} / (1 - norm^{-sigma0}).

        Uses the integral comparison with a monotone over-count
        #{p : norm <= t} <= count_coeff * t supplied by the backend.
        Certified only for sigma0 > 1.
        """
        x = self.cutoff
        if sigma0 <= 1.0:
            return float("inf")
        raw = count_coeff * sigma0 * x ** (1.0 - sigma0) / (sigma0 - 1.0)
        return raw / (1.0 - x**-sigma0)


class ZetaSystem:
    """A countable family of primes with a finite cyclic group descriptor.

    Subclasses implement `_enumerate(X)` returning the PRIME_DTYPE table of
    all primes with norm <= X, cached for the largest X asked so far.
    """

    backend = "abstract"

    def __init__(self, group_order: int):
        if group_order < 1:
            raise InvalidConfigError("group order must be >= 1")
        self.group_order = group_order
        self._cache_X = 0.0
        self._cache = np.empty(0, PRIME_DTYPE)
        self._slices_X = None
        self._slices: dict[tuple[int, int], np.ndarray] = {}
        self._sums: dict[tuple[float, complex], ClassSums] = {}

    # -- subclass surface --------------------------------------------
    def _enumerate(self, X: float) -> np.ndarray:
        raise NotImplementedError

    def count_coeff(self) -> float:
        """c with #{p : norm <= t} <= c * t for all t (monotone over-count)."""
        return 1.0

    def params(self) -> dict:
        """The inputs that rebuild this system through its backend."""
        return {}

    # -- public ------------------------------------------------------
    def primes_up_to(self, X: float) -> np.ndarray:
        """Read-only view of the prime table rows with norm <= X."""
        if math.isnan(X):
            raise InvalidConfigError("prime cutoff is NaN")
        if X > self._cache_X:
            table = self._enumerate(X)
            norms = table["norm"]
            if not np.all(norms[1:] > norms[:-1]):
                table = table[np.lexsort((table["id"], norms))]
            table.flags.writeable = False
            self._cache = table
            self._cache_X = X
        return self._cache[:np.searchsorted(self._cache["norm"], X, side="right")]

    def arrays_up_to(self, X: float):
        """(norms, frob_class, frob_order) column views of primes_up_to(X)."""
        table = self.primes_up_to(X)
        return table["norm"], table["frob_class"], table["frob_order"]

    def class_slices(self, X: float) -> dict[tuple[int, int], np.ndarray]:
        """The norms <= X split by (frob_class mod #G, frob_order), in norm
        order inside each slice; built once per cutoff."""
        if X != self._slices_X:
            norms, classes, orders = self.arrays_up_to(X)
            norms = np.ascontiguousarray(norms)
            q = self.group_order
            code = classes % q * (q + 1) + orders  # frob_order <= #G
            self._slices = {divmod(int(k), q + 1): np.compress(code == k, norms)
                            for k in np.flatnonzero(np.bincount(code))}
            self._slices_X = X
        return self._slices

    def class_sums(self, X: float, s: complex) -> ClassSums:
        """The slice sums at s over the primes with norm <= X, kept for the
        last POINT_CACHE points asked for."""
        key = (X, complex(s))
        sums = self._sums.pop(key, None)
        if sums is None:
            sums = ClassSums(self.class_slices(X), s)
            if len(self._sums) >= POINT_CACHE:
                del self._sums[next(iter(self._sums))]
        self._sums[key] = sums  # most recently used last
        return sums

    def dump_csv(self, X: float) -> str:
        lines = ["id,norm,frob_class,frob_order"]
        for norm, pid, cls, order in self.primes_up_to(X).tolist():
            norm = int(norm) if norm.is_integer() else norm
            lines.append(f"{pid},{norm},{cls},{order}")
        return "\n".join(lines) + "\n"


class ExplicitSystem(ZetaSystem):
    """Finite, hand-specified prime list; used for synthetic test systems."""

    backend = "explicit"

    def __init__(self, primes: list[PrimeDatum], group_order: int):
        super().__init__(group_order)
        for p in primes:
            if group_order % p.frob_order != 0:
                raise InvalidConfigError(
                    f"frob_order {p.frob_order} does not divide #G={group_order}")
        self._table = np.array([astuple(p) for p in sorted(primes)], PRIME_DTYPE)

    def _enumerate(self, X):
        return self._table[self._table["norm"] <= X]

    def count_coeff(self):
        return max(1.0, float(len(self._table)))

    def params(self):
        return {"primes": self._table.tolist(), "group_order": self.group_order}


# ---------------------------------------------------------------------------
# log-space products
# ---------------------------------------------------------------------------

def log_product(norms: np.ndarray, chi: np.ndarray | complex, s):
    """sum over primes of -log(1 - chi * norm^{-s}), principal branch per factor.

    s is a 1-d array, giving an array with one sum per point, or a scalar,
    a batch of one that gives a Python complex.  log(1 - x) = log1p(z) with
    z = -x = a + ib is 0.5 log1p(2a + a^2 + b^2) + i atan2(b, 1 + a), stable
    for small |z|; computed in place in a few work arrays shared by the
    points, see the module docstring.
    """
    z = np.asarray(s)
    pts = z.reshape(-1).tolist()
    sums = np.zeros(len(pts), complex)
    n = len(norms)
    if n:
        out = np.empty(n, complex)
        # one point keeps the log in out's first half: contiguous, and free
        # until the singular-factor check
        logs = np.log(norms,
                      out=out.view(float)[:n] if len(pts) == 1 else None)
        # x = chi norm^{-s} stays float while s and chi are real: a complex
        # exp would move last bits
        x = np.empty(n, complex if np.iscomplexobj(z) else float)
        cis = None  # the phase table, allocated for the first shared height
        for members in _phase_groups(pts, logs, np.iscomplexobj(z)):
            shared = len(members) > 1
            if shared:
                # exp(0 + iy) with y = Im(-s log p), the same bits for every
                # member (see _phase_groups)
                cis = np.multiply(-pts[members[0]], logs, out=cis)
                cis.real = 0.0
                np.exp(cis, out=cis)
            for k in members:
                if shared:
                    # exp(-Re s log p) * (cos y, sin y): cexp's own bits
                    np.multiply(-pts[k].real, logs, out=x.real)
                    x.imag = 0.0
                    np.exp(x, out=x)
                    np.multiply(x.real, cis.imag, out=x.imag)
                    x.real *= cis.real
                else:
                    np.exp(np.multiply(-pts[k], logs, out=x), out=x)
                sums[k] = _log_one_minus_sum(x, out, chi, pts[k])
    return complex(sums[0]) if z.ndim == 0 else sums


def _phase_groups(pts: list, logs: np.ndarray,
                  complex_s: bool) -> list[list[int]]:
    """The indices of pts grouped by height, each group sharing one phase
    table; a point of a real batch, or one the identity does not cover,
    is a group of its own.

    y = Im(-s log p) is (-Re s) * 0 + (-Im s) * log p in numpy's complex
    product, so its bits depend only on Im s and on the sign of Re s, which
    a zero product can carry.  cexp(x + iy) is (exp(x) cos y, exp(x) sin y)
    only for x <= 709 and finite y, so the group asks that of every member.
    """
    if not complex_s or len(pts) == 1:
        return [[k] for k in range(len(pts))]
    lo, hi = float(np.min(logs)), float(np.max(logs))
    groups: dict = {}
    for k, p in enumerate(pts):
        key = (p.imag, math.copysign(1.0, p.imag), math.copysign(1.0, p.real))
        if not (math.isfinite(p.real) and math.isfinite(p.imag * lo)
                and math.isfinite(p.imag * hi)
                and max(-p.real * lo, -p.real * hi) <= CEXP_REAL_MAX):
            key = k
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def _log_one_minus_sum(x: np.ndarray, out: np.ndarray, chi, s) -> complex:
    """-sum of log(1 - chi x) over x = norm^{-s}, using x and out as work."""
    if np.iscomplexobj(x) or np.iscomplexobj(chi):
        # out of place: numpy multiplies a one-element complex array in
        # place with its reduction loop, which rounds differently
        spare = x if np.iscomplexobj(x) else np.empty(len(x), complex)
        x, out = np.multiply(x, chi, out=out), spare
    else:
        x *= chi
    one_minus_x = np.subtract(1.0, x, out=out if np.iscomplexobj(x) else out.real)
    if np.any(np.abs(one_minus_x) < SINGULAR_FACTOR_EPS):
        raise SingularLocalFactorError(f"singular local factor at s={s}")
    # z = -x in place, negated as floats: numpy's complex loop is slower
    np.negative(x.view(float), out=x.view(float))
    a, re, im = x.real, out.real, out.imag
    np.multiply(2, a, out=re)
    np.multiply(a, a, out=im)
    re += im
    if np.iscomplexobj(x):
        b = x.imag
        np.multiply(b, b, out=im)
        re += im
    else:
        b = 0.0  # adding b^2 = +0 changes nothing: 2a + a^2 is never -0
    with np.errstate(divide="ignore"):
        np.log1p(re, out=re)
    re *= 0.5
    np.add(1.0, a, out=im)
    np.arctan2(b, im, out=im)
    total = -np.sum(out)
    # x within about 1e-8 of 1 rounds 2a + a^2 to -1 and its log1p to -inf
    if total.real == math.inf:
        raise SingularLocalFactorError(f"local factor log not finite at s={s}")
    return total


@functools.lru_cache(maxsize=None)
def roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i k/n} for k < n, exact where the root is 1, i, -1 or -i."""
    exact = (1.0, 1j, -1.0, -1j)
    roots = np.array([exact[4 * k // n] if 4 * k % n == 0
                      else cmath.exp(2j * math.pi * k / n) for k in range(n)],
                     dtype=complex)
    roots.flags.writeable = False
    return roots


class ClassSums:
    """Euler-product sums at one point s over the class slices of a table.

    term(w, key) is the sum over slice key = (frob_class, frob_order) of
    -log(1 - w norm^{-s}): one log_product pass on first use, then shared
    by every product at s that twists that slice by w.
    """

    def __init__(self, slices: dict[tuple[int, int], np.ndarray], s: complex):
        self.slices = slices
        self.s = s
        self._terms: dict[tuple[complex, tuple[int, int]], complex] = {}

    def term(self, w: complex, key: tuple[int, int]) -> complex:
        t = self._terms.get((w, key))
        if t is None:
            t = self._terms[w, key] = log_product(self.slices[key], w, self.s)
        return t


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def exp_of_log(log_value: complex) -> complex:
    """A product from its log; DomainError where it overflows a double."""
    try:
        return cmath.exp(log_value)
    except OverflowError:
        raise DomainError(f"a product with log {log_value} overflows a "
                          f"double") from None


def log_zeta_Pn(sys: ZetaSystem, n: int, s: complex, pol: TruncationPolicy) -> complex:
    sums = sys.class_sums(pol.cutoff, s)
    return sum((sums.term(1.0, key) for key in sums.slices if key[1] == n), 0j)


def truncated_zeta_Pn(sys: ZetaSystem, n: int, s: complex,
                      pol: TruncationPolicy) -> tuple[complex, float]:
    """Truncated zeta_{P_n}(s) and a bound on |log(true/value)|."""
    if n < 1:
        raise InvalidConfigError("n must be a positive integer")
    value = exp_of_log(log_zeta_Pn(sys, n, s, pol))
    tail = pol.tail_bound(s.real if isinstance(s, complex) else float(s),
                          sys.count_coeff())
    return value, tail


def log_zeta_P(sys: ZetaSystem, s: complex, pol: TruncationPolicy) -> complex:
    sums = sys.class_sums(pol.cutoff, s)
    return sum((sums.term(1.0, key) for key in sums.slices), 0j)


def truncated_zeta_P(sys: ZetaSystem, s: complex,
                     pol: TruncationPolicy) -> tuple[complex, float]:
    value = exp_of_log(log_zeta_P(sys, s, pol))
    return value, pol.tail_bound(complex(s).real, sys.count_coeff())
