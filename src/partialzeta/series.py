"""Exact rational power series / polynomial arithmetic, plus cyclotomic scalars.

Everything here is exact.  Coefficients are Python ints where they are
integral, a ``fractions.Fraction`` only where a division makes one, or
:class:`Cyclotomic` vectors over those.  An :class:`ExactSeries` with
``order=None`` behaves as an honest polynomial; with a finite ``order`` it is
a truncated power series and all operations drop coefficients beyond
``u^order``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidConfigError


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class ExactSeries:
    """Polynomial or truncated power series with exact coefficients: ints,
    Fractions or Cyclotomics, stored as given."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = list(coeffs)
        if order is not None:
            cs = cs[: order + 1]
        self.coeffs = _trim(cs)
        self.order = order

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls, order: int | None = None) -> "ExactSeries":
        return cls([1], order)

    @classmethod
    def monomial(cls, power: int, coeff=1, order: int | None = None) -> "ExactSeries":
        return cls([0] * power + [coeff], order)

    # -- bookkeeping --------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _join_order(self, other) -> int | None:
        a, b = self.order, getattr(other, "order", None)
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def truncate(self, order: int) -> "ExactSeries":
        return ExactSeries(self.coeffs[: order + 1], order)

    def __eq__(self, other):
        if not isinstance(other, ExactSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"ExactSeries({self.coeffs!r}, order={self.order!r})"

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [self.coeff(k) + other.coeff(k) for k in range(n)]
        return ExactSeries(cs, self._join_order(other))

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [self.coeff(k) - other.coeff(k) for k in range(n)]
        return ExactSeries(cs, self._join_order(other))

    def __neg__(self):
        return ExactSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        other = self._coerce(other)
        order = self._join_order(other)
        na, nb = len(self.coeffs), len(other.coeffs)
        ncap = na + nb - 1 if self.coeffs and other.coeffs else 0
        if order is not None:
            ncap = min(ncap, order + 1)
        out = [0] * max(ncap, 0)
        for i, a in enumerate(self.coeffs):
            if a == 0 or i >= len(out):
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= len(out):
                    break
                out[i + j] = out[i + j] + a * b
        return ExactSeries(out, order)

    __rmul__ = __mul__

    def _coerce(self, other) -> "ExactSeries":
        if isinstance(other, ExactSeries):
            return other
        return ExactSeries([other])

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = ExactSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "ExactSeries":
        """Multiplicative inverse as a truncated series (unit constant term)."""
        if self.order is None:
            raise InvalidConfigError("series inverse needs a finite truncation order")
        if not self.coeffs or self.coeffs[0] == 0:
            raise InvalidConfigError("series inverse needs a unit constant term")
        c0 = self.coeffs[0]
        if c0 in (1, -1):
            inv = [c0]
        else:
            inv = [c0.inverse() if isinstance(c0, Cyclotomic) else Fraction(1) / c0]
        for k in range(1, self.order + 1):
            inv.append(-sum(self.coeff(j) * inv[k - j] for j in range(1, k + 1)) * inv[0])
        return ExactSeries(inv, self.order)

    def __truediv__(self, other):
        other = self._coerce(other)
        if self.order is None and other.order is None:
            q, r = poly_divmod(self.coeffs, other.coeffs)
            if _trim(list(r)):
                raise InvalidConfigError("exact polynomial division left a remainder")
            return ExactSeries(q, None)
        order = self._join_order(other)
        return self.truncate(order) * other.truncate(order).inverse()

    def substitute_power(self, k: int) -> "ExactSeries":
        """Return series in u obtained by u -> u^k."""
        cs = []
        for c in self.coeffs:
            cs.extend([c] + [0] * (k - 1))
        if cs:
            cs = cs[: len(cs) - (k - 1)]
        return ExactSeries(cs, self.order)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            val = complex(c) if isinstance(c, Cyclotomic) else c
            acc = acc * x + (val if isinstance(x, complex) else c)
        return acc


# ---------------------------------------------------------------------------
# plain polynomial helpers on coefficient lists (Fractions)
# ---------------------------------------------------------------------------

def poly_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    a = [Fraction(c) if not isinstance(c, Fraction) else c for c in a]
    b = _trim([Fraction(c) if not isinstance(c, Fraction) else c for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(_trim(r)) >= len(b):
        d = len(r) - len(b)
        c = r[-1] / b[-1]
        q[d] = c
        for i, bc in enumerate(b):
            r[d + i] -= c * bc
        r.pop()
    return q, r


def poly_gcd(a: Sequence, b: Sequence) -> list:
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, _trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def squarefree_decomposition(coeffs: Sequence) -> list[tuple[list, int]]:
    """Yun-style decomposition: [(factor, multiplicity), ...], factors monic."""
    p = _trim([Fraction(c) for c in coeffs])
    if len(p) <= 1:
        return []
    out = []
    dp = [p[k] * k for k in range(1, len(p))]
    g = poly_gcd(p, dp)
    w, _ = poly_divmod(p, g)
    mult = 1
    while _trim(list(w)) not in ([], [Fraction(1)]):
        y = poly_gcd(w, g)
        factor, _ = poly_divmod(w, y)
        factor = _trim(factor)
        if len(factor) > 1:
            lead = factor[-1]
            out.append(([c / lead for c in factor], mult))
        g, _ = poly_divmod(g, y)
        w = y
        mult += 1
    return out


# ---------------------------------------------------------------------------
# cyclotomic scalars
# ---------------------------------------------------------------------------

class Cyclotomic:
    """Element of Q(zeta_q), q prime, on the power basis 1, z, ..., z^{q-2}.

    The vector entries are ints for elements of Z[zeta_q], and Fractions only
    where a division (:meth:`inverse`) makes them."""

    __slots__ = ("q", "vec")

    def __init__(self, q: int, vec: Sequence):
        self.q = q
        v = list(vec)
        if len(v) > q - 1:
            raise InvalidConfigError("cyclotomic vector longer than the power basis")
        v += [0] * (q - 1 - len(v))
        self.vec = v

    @classmethod
    def zero(cls, q: int) -> "Cyclotomic":
        return cls(q, [])

    @classmethod
    def one(cls, q: int) -> "Cyclotomic":
        return cls(q, [1])

    @classmethod
    def root_power(cls, q: int, j: int) -> "Cyclotomic":
        """zeta_q^j as a basis vector (reduced when j = q-1)."""
        j %= q
        if j < q - 1:
            return cls(q, [0] * j + [1])
        return cls(q, [-1] * (q - 1))  # z^{q-1} = -(1 + z + ... + z^{q-2})

    def conjugate(self, j: int) -> "Cyclotomic":
        """sigma_j(self), zeta -> zeta^j for j prime to q: z^i goes to z^{ij mod q}."""
        out = [0] * self.q
        for i, c in enumerate(self.vec):
            out[i * j % self.q] += c
        return Cyclotomic(self.q, [c - out[-1] for c in out[:-1]])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.vec[1:])

    def rational(self) -> int | Fraction:
        if not self.is_rational():
            raise InvalidConfigError("cyclotomic value is not rational")
        return self.vec[0]

    def _wrap(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            return other
        return Cyclotomic(self.q, [other])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic(self.q, [other])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.q == other.q and self.vec == other.vec

    def __add__(self, other):
        other = self._wrap(other)
        return Cyclotomic(self.q, [a + b for a, b in zip(self.vec, other.vec)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._wrap(other)
        return Cyclotomic(self.q, [a - b for a, b in zip(self.vec, other.vec)])

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __neg__(self):
        return Cyclotomic(self.q, [-a for a in self.vec])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.q, [a * other for a in self.vec])
        other = self._wrap(other)
        q = self.q
        conv = [0] * (2 * (q - 1) - 1)
        for i, a in enumerate(self.vec):
            if a == 0:
                continue
            for j, b in enumerate(other.vec):
                conv[i + j] += a * b
        # reduce powers z^k, k >= q-1 via z^{q-1} = -(1 + ... + z^{q-2}), z^q = 1
        out = conv[: q - 1]
        for k in range(q - 1, len(conv)):
            c = conv[k]
            if c == 0:
                continue
            if k % q == q - 1:
                out = [o - c for o in out]
            else:
                out[k % q] += c
        return Cyclotomic(q, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Solve self * x = 1 by exact Gaussian elimination on the basis."""
        q = self.q
        n = q - 1
        cols = [(self * Cyclotomic.root_power(q, j)).vec for j in range(n)]
        a = [[cols[j][i] for j in range(n)] + [Fraction(1 if i == 0 else 0)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                raise ZeroDivisionError("cyclotomic inverse of zero divisor")
            a[col], a[piv] = a[piv], a[col]
            inv = Fraction(1) / a[col][col]
            a[col] = [c * inv for c in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [c - f * p for c, p in zip(a[r], a[col])]
        return Cyclotomic(q, [a[i][n] for i in range(n)])

    def __truediv__(self, other):
        other = self._wrap(other)
        return self * other.inverse()

    def __complex__(self) -> complex:
        import cmath

        z = cmath.exp(2j * cmath.pi / self.q)
        return sum(complex(c) * z**j for j, c in enumerate(self.vec))

    def __repr__(self):
        return f"Cyclotomic({self.q}, {self.vec!r})"
