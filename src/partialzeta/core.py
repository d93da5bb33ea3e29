"""Prime tables, truncated Euler products and the subset zeta functions.

Truncated products are accumulated in log space (complex, principal branch
per factor); `exp_of_log` exponentiates them, and
`TruncationPolicy.tail_bound` bounds |log(true/value)|.

A system's primes are one `PrimeTable` of columns: float64 norms, classes
in [0, #G) and orders in the smallest integer dtype holding #G, and ids
only where they are not the norms.  It is split once per cutoff into
contiguous (frob_class, frob_order) slices of norms.  `ClassSums` holds
the sums at s, one point or a 1-d array of points, the same path for both:
each slice's norm^{-s} is twisted by every w a character of #G gives its
class, in one `log_product` call over every point, and each sum
-log(1 - w norm^{-s}) is shared by every product at s.

`log_product`, the kernel under all of them, works in place: `_fill`
writes log(1 - w norm^{-s}) over a range of norms into one array per twist,
chunk by chunk in work arrays its caller sizes, instead of a fresh array per
operation, and `_finish` takes each twist's sum.  It takes a batch of points
s, a 1-d array (a scalar is a batch of one), and a twist or a list of
twists, and shares between them the log of the norms, each point's
norm^{-s} between the twists, and, among points of one height, the phase:

- each point of a shared height forms norm^{-s} as
  exp(-Re s log p) * (cos y, sin y), with y = -Im s log p; the real factor
  is numpy's complex exp of a real argument and the phase table
  exp(0 + iy) is computed once per height;
- glibc's cexp forms exp(x + iy) as exactly that pair of products for
  x <= 709 (see the `lfunctions` module docstring, and
  `TestLibmPrecondition` in the tests), so this is the bits of one complex
  exp per point, at the cost of a real one;
- a height that only one point of the batch has, or a point the identity
  does not cover, takes one complex exp, and needs no phase table.

`_log_one_minus` forms each twist's logs on contiguous float planes in
the buffers it is handed, z = -w norm^{-s} in the output's and the logs'
parts in the work array's, and its singular check reads the planes, so a
twist allocates no array of the chunk's length.

Every step before the sum is elementwise, with the same floating-point
operations in the same order as the one-array-per-operation form, and each
sum is numpy's pairwise complex sum over the whole slice, so every sum is
bit-for-bit that of `reference_log_product` in the tests with its one
twist, however the norms were cut into chunks and ranges.

Both cuts run through `in_threads`, which starts one thread per CPU the
process may use, in copies of the caller's context so its np.errstate
holds on them, joins every thread before it returns or raises, and raises
the error of the first part that met one.  numpy's ufuncs release the GIL.

- One point's norms are cut into ranges of at least RANGE_MIN norms, one
  per CPU, or one range on the caller's thread for a shorter slice.  Each
  range fills its part of the twists' arrays in chunks of RANGE_CHUNK;
  `_finish` runs once after the join.
- A batch of two or more points is cut, in phase-group order, into
  contiguous runs of points.  Each run allocates its arrays once, in one
  block, fills each point over the whole slice as one chunk, taking the
  shared-height path wherever the whole height is shared, so a point's
  bits do not depend on where the batch was cut, and finishes it.  The
  last twist's logs overwrite the point's norm^{-s}.

The error is the serial loop's: a fill stops at the first singular twist,
and `_finish` checks each earlier twist's sum for +inf before it reports
that twist's singular factor.
"""
from __future__ import annotations

import cmath
import contextvars
import functools
import math
import os
import sys as _sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidConfigError, SingularLocalFactorError

SINGULAR_FACTOR_EPS = 1e-15
# glibc's cexp(x + iy) is (exp(x) cos y, exp(x) sin y) up to this x; above
# it rescales
CEXP_REAL_MAX = 709.0
# points, or batches of points, whose slice sums a system keeps: every point
# of one feq-check or composite functional-equation residual
# (s, q1 s, q2 s, n s) fits; eval's products at its points all share one
POINT_CACHE = 8
# one point's slice is cut into ranges of at least RANGE_MIN norms, one per
# CPU, each filled in chunks of RANGE_CHUNK: a range's work outweighs the
# start and join of its thread many times over (README, Continuation grid),
# and a chunk's work arrays (about 0.8 MB) stay in cache
RANGE_MIN = 2**16
RANGE_CHUNK = 2**14


def class_dtype(group_order: int) -> np.dtype:
    """The smallest signed integer dtype holding every integer in [0, #G]."""
    return np.min_scalar_type(-group_order - 1)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Prime columns sorted by (norm, id); no id where ids are the norms."""

    norm: np.ndarray
    frob_class: np.ndarray
    frob_order: np.ndarray
    id: np.ndarray | None = None

    def __len__(self):
        return len(self.norm)

    def __getitem__(self, rows) -> PrimeTable:
        return PrimeTable(*(c if c is None else c[rows] for c in vars(self).values()))


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

    Subclasses implement `_enumerate(X)`: the PrimeTable, classes in
    [0, #G), of all primes with norm <= X, enumerated afresh each call.
    """

    backend = "abstract"

    def __init__(self, group_order: int):
        if group_order < 1:
            raise InvalidConfigError("group order must be >= 1")
        self.group_order = group_order
        # (X, slices) of the last cutoff: feq-check asks again at q s
        self._slices: tuple[float | None, dict] = (None, {})
        self._sums: dict[tuple, ClassSums] = {}

    # -- subclass surface --------------------------------------------
    def _enumerate(self, X: float) -> PrimeTable:
        raise NotImplementedError

    def count_coeff(self) -> float:
        """c with #{p : norm <= t} <= c * t for all t (monotone over-count)."""
        return 1.0

    # -- public ------------------------------------------------------
    def primes_up_to(self, X: float) -> PrimeTable:
        """The prime table of the rows with norm <= X, enumerated afresh."""
        if math.isnan(X):
            raise InvalidConfigError("prime cutoff is NaN")
        table = self._enumerate(X)
        if not np.all(table.norm[1:] > table.norm[:-1]):
            table = table[np.lexsort((table.id, table.norm))]
        return table

    def arrays_up_to(self, X: float):
        """(norms, frob_class, frob_order) columns of primes_up_to(X)."""
        table = self.primes_up_to(X)
        return table.norm, table.frob_class, table.frob_order

    def class_slices(self, X: float) -> dict[tuple[int, int], np.ndarray]:
        """The norms <= X split by (frob_class, frob_order), keys ascending,
        each slice contiguous and in norm order; built once per cutoff."""
        if X != self._slices[0]:
            norms, classes, orders = self.arrays_up_to(X)
            q = self.group_order
            # one code per (class, order) pair, ascending with the pair
            code = np.multiply(classes, q + 1, dtype=class_dtype((q + 1) ** 2))
            code += orders
            self._slices = (X, {divmod(int(k), q + 1): np.compress(code == k, norms)
                                for k in np.flatnonzero(np.bincount(code))})
        return self._slices[1]

    def class_sums(self, X: float, s) -> ClassSums:
        """The slice sums at s, a point or a 1-d array of points, over the
        primes with norm <= X, kept for the last POINT_CACHE asked for."""
        key = (X, np.shape(s), tuple(np.ravel(s).tolist()))
        sums = self._sums.pop(key, None)
        if sums is None:
            sums = ClassSums(self.class_slices(X), s, self.group_order)
            if len(self._sums) >= POINT_CACHE:
                del self._sums[next(iter(self._sums))]
        self._sums[key] = sums  # most recently used last
        return sums

    def dump_csv(self, X: float) -> str:
        t = self.primes_up_to(X)
        norms = [int(v) if v.is_integer() else v for v in t.norm.tolist()]
        rows = zip(norms if t.id is None else t.id.tolist(), norms,
                   t.frob_class.tolist(), t.frob_order.tolist())
        lines = ["id,norm,frob_class,frob_order"]
        return "\n".join(lines + [",".join(map(str, row)) for row in rows]) + "\n"


# ---------------------------------------------------------------------------
# log-space products
# ---------------------------------------------------------------------------

def log_product(norms: np.ndarray, w, s):
    """sum over primes of -log(1 - w * norm^{-s}), principal branch per factor.

    s is a 1-d array, giving one sum per point, or a scalar, a batch of one,
    taken as complex; a list of twists w adds an axis of one sum per twist,
    all from one norm^{-s} per point.  Scalar s and w give a Python complex.
    log(1 - x) = log1p(z) with z = -x = a + ib is 0.5 log1p(2a + a^2 + b^2)
    + i atan2(b, 1 + a), stable for small |z|; computed in place in a few
    work arrays by `_fill`, one point's norms cut into ranges and the points
    of a batch into runs, one per thread, see the module docstring.
    """
    z = np.asarray(s, dtype=complex)
    pts = z.reshape(-1).tolist()
    ws = list(w) if np.ndim(w) else [w]
    sums = np.zeros((len(pts), len(ws)), complex)
    n = len(norms)
    if n and len(pts) == 1:
        outs = [np.empty(n, complex) for _ in ws]
        firsts = []

        def fill_range(lo, hi):
            m = min(RANGE_CHUNK, hi - lo)
            firsts.append(_fill(norms, ws, pts[0], lo, hi, outs,
                                np.empty(m, complex), np.empty(m, complex)))

        in_threads(fill_range, n, RANGE_MIN)
        _finish(outs, min(firsts), pts[0], sums[0])
    elif n and len(pts) > 1:
        logs = np.log(norms)
        # (point, group, shared) in phase-group order, cut into one
        # contiguous run per thread
        order = [(k, i, len(members) > 1) for i, members in
                 enumerate(_phase_groups(pts, logs))
                 for k in members]

        def fill_run(lo, hi):
            # norm^{-s}, work, the phase table and one array per twist past
            # the last, whose logs overwrite norm^{-s}: one block, where
            # separate arrays fragmented the heap (5-10 MB of RSS at 1e7)
            x, work, cis, *outs = np.empty((len(ws) + 2, n), complex)
            outs.append(x)
            cis_group = None  # the group whose phase table cis holds
            for k, group, shared in order[lo:hi]:
                if shared and group != cis_group:
                    # exp(0 + iy) with y = Im(-s log p), the same bits for
                    # every member (see _phase_groups); log p goes in as
                    # complex in work, the cast numpy would otherwise make
                    # in a 128 kB buffer of its own
                    work.real, work.imag = logs, 0.0
                    np.multiply(-pts[k], work, out=cis)
                    cis.real = 0.0
                    np.exp(cis, out=cis)
                    cis_group = group
                first = _fill(norms, ws, pts[k], 0, n, outs, x, work, logs,
                              cis if shared else None)
                _finish(outs, first, pts[k], sums[k])

        in_threads(fill_run, len(order))
    shape = z.shape + np.shape(w)
    return complex(sums[0, 0]) if shape == () else sums.reshape(shape)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_threads(work, n: int, min_len: int = 1) -> None:
    """Call work(lo, hi) on contiguous ranges cutting [0, n), one per CPU
    the process may use and each at least min_len long, or on [0, n)
    alone where n < 2 min_len.

    The first range runs on the caller's thread and every other on a
    thread of its own, in a copy of the caller's context, so its
    np.errstate holds there.  Every thread is joined before this returns
    or raises, and the error raised is that of the first range that
    raised one: the error a serial loop over the ranges would meet first.
    """
    parts = max(1, min(_cpu_count(), n // min_len))
    if parts == 1:  # no thread to start: a few microseconds a call cheaper
        work(0, n)
        return
    cuts = [r * n // parts for r in range(parts + 1)]
    errors: list[Exception | None] = [None] * parts

    def run(r):
        try:
            work(cuts[r], cuts[r + 1])
        except Exception as exc:  # raised below, once every range is done
            errors[r] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run, r)) for r in range(1, parts)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    first = next((e for e in errors if e is not None), None)
    if first is not None:
        raise first


def _fill(norms: np.ndarray, ws: list, s, lo: int, hi: int, outs: list,
          x: np.ndarray, work: np.ndarray, logs: np.ndarray | None = None,
          cis: np.ndarray | None = None) -> int:
    """Write log(1 - w norm^{-s}) over norms[lo:hi] into outs[i][lo:hi] for
    each twist w = ws[i], in chunks of len(x) worked in x and work, and
    return the first singular twist, len(ws) if none is; the twists past
    it are not written.

    logs, if given, are the logs of all of norms, and cis the phase table
    exp(i Im(-s log p)) of s's height over them; without logs each chunk
    takes its logs in work.  outs[-1] may be x where x is one chunk over
    all of norms.
    """
    first = len(ws)
    for a in range(lo, hi, len(x)):
        m = min(len(x), hi - a)
        xm, wm = x[:m], work[:m]
        lg = (np.log(norms[a:a + m], out=wm.view(float)[:m]) if logs is None
              else logs[a:a + m])
        if cis is None:
            np.exp(np.multiply(-s, lg, out=xm), out=xm)
        else:
            # exp(-Re s log p) * (cos y, sin y): cexp's own bits
            np.multiply(-s.real, lg, out=xm.real)
            xm.imag = 0.0
            np.exp(xm, out=xm)
            np.multiply(xm.real, cis.imag[a:a + m], out=xm.imag)
            xm.real *= cis.real[a:a + m]
        for i in range(first):
            if not _log_one_minus(xm, ws[i], outs[i][a:a + m], wm):
                first = i
                break
    return first


def _finish(outs: list, first: int, s, sums: np.ndarray) -> None:
    """Fill sums[i] with -sum of outs[i] for each twist before first, then
    raise first's singular error: the serial loop's order, where a twist's
    sum is checked for +inf before a later twist's factors are."""
    for i in range(first):
        # numpy's pairwise sum of one array: the same bits however the
        # array was filled
        total = -np.sum(outs[i])
        # x within about 1e-8 of 1 rounds 2a + a^2 to -1 and its log1p to -inf
        if total.real == math.inf:
            raise SingularLocalFactorError(f"local factor log not finite at s={s}")
        sums[i] = total
    if first < len(outs):
        raise SingularLocalFactorError(f"singular local factor at s={s}")


def _phase_groups(pts: list, logs: np.ndarray) -> list[list[int]]:
    """The indices of pts grouped by height, each group sharing one phase
    table; a point the identity does not cover is a group of its own.

    y = Im(-s log p) is (-Re s) * 0 + (-Im s) * log p in numpy's complex
    product, so its bits depend only on Im s and on the sign of Re s, which
    a zero product can carry.  cexp(x + iy) is (exp(x) cos y, exp(x) sin y)
    only for x <= 709 and finite y, so the group asks that of every member.
    """
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


def _log_one_minus(x: np.ndarray, w, out: np.ndarray, work: np.ndarray) -> bool:
    """Write log(1 - w x) over x = norm^{-s} into out, with w x in work;
    False, out partly written, where a factor is singular.  x, out and work
    are contiguous complex arrays of one length, and out may be x.

    Once w x is in work, z = -w x = a + ib goes as two float planes into
    out's buffer and the logs' real and imaginary parts as two into
    work's, interleaved into out at the end: the operations of
    `reference_log_product`, in its order, on contiguous planes.  1 + a is
    Re(1 - w x) bit for bit (IEEE's x - y is x + (-y)) and bounds
    |1 - w x| from below, so numpy's complex modulus, the reference's
    check, runs only on the factors with |1 + a| below the bound, taken of
    1 + z, the reference's 1 - w x bit for bit (0 + b is 0 - Im w x).
    """
    m = len(out)
    # out of place: numpy multiplies a one-element complex array in place
    # with its reduction loop, which rounds differently
    np.multiply(x, w, out=work)
    a, b = out.view(float)[:m], out.view(float)[m:]
    np.negative(work.real, out=a)
    np.negative(work.imag, out=b)
    re, im = work.view(float)[:m], work.view(float)[m:]
    np.add(1.0, a, out=re)
    np.abs(re, out=re)
    # fmin skips NaN, so a NaN factor cannot hide a singular one
    if np.fmin.reduce(re) < SINGULAR_FACTOR_EPS:
        flagged = re < SINGULAR_FACTOR_EPS
        z = np.empty(np.count_nonzero(flagged), complex)
        z.real, z.imag = a[flagged], b[flagged]
        if np.any(np.abs(np.add(1.0, z, out=z)) < SINGULAR_FACTOR_EPS):
            return False
    np.multiply(2, a, out=re)
    np.multiply(a, a, out=im)
    re += im
    np.multiply(b, b, out=im)
    re += im
    with np.errstate(divide="ignore"):
        np.log1p(re, out=re)
    re *= 0.5
    np.add(1.0, a, out=im)
    np.arctan2(b, im, out=im)
    out.real, out.imag = re, im
    return True


@functools.lru_cache(maxsize=None)
def roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i k/n} for k < n, exact where the root is 1, i, -1 or -i."""
    exact = (1.0, 1j, -1.0, -1j)
    roots = np.array([exact[4 * k // n] if 4 * k % n == 0
                      else cmath.exp(2j * math.pi * k / n) for k in range(n)],
                     dtype=complex)
    roots.flags.writeable = False
    return roots


@dataclass
class ClassSums:
    """Euler-product sums at s, one point or a 1-d array of points, over the
    class slices of a table.

    term(w, key) is the sum over slice key = (frob_class, frob_order) of
    -log(1 - w norm^{-s}), one per point of an array, shared by every
    product at s that twists that slice by w; from the same norm^{-s} it
    computes, unless twists is False, every other twist a character of #G
    gives the class.  Where one of those is singular at some point, w is
    taken alone at every point, with the same bits: the kernel's sum for w
    does not depend on the other twists.
    """

    slices: dict[tuple[int, int], np.ndarray]
    s: complex | np.ndarray
    group_order: int
    _terms: dict = field(default_factory=dict)  # (w, key) -> term

    def term(self, w: complex, key: tuple[int, int], twists: bool = True):
        t = self._terms.get((w, key))
        if t is None:
            q, roots = self.group_order, roots_of_unity(self.group_order)
            ws = [w] + [complex(roots[j * key[0] % q]) for j in range(q) if twists]
            ws = [v for v in dict.fromkeys(ws) if (v, key) not in self._terms]
            try:
                sums = log_product(self.slices[key], ws, self.s)
            except SingularLocalFactorError:  # w alone, as above
                ws = [w]
                sums = log_product(self.slices[key], ws, self.s)
            # per twist, a Python complex at a point or an array over a batch
            sums = list(sums.T) if np.ndim(self.s) else sums.tolist()
            self._terms.update(zip([(v, key) for v in ws], sums))
            t = sums[0]
        return t


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def exp_of_log(log_value: complex) -> complex:
    """A product from its log; DomainError where it is not a finite double
    or its modulus is below the least normal double, where it would keep
    too few bits or none."""
    if not cmath.isfinite(log_value):
        raise DomainError(f"a product with log {log_value} is not finite")
    if log_value.real < math.log(_sys.float_info.min):
        raise DomainError(f"a product with log {log_value} underflows a "
                          f"double")
    try:
        value = cmath.exp(log_value)
        abs(value)
    except OverflowError:
        raise DomainError(f"a product with log {log_value} overflows a "
                          f"double") from None
    return value


def log_zeta_Pn(sys: ZetaSystem, n: int, s, pol: TruncationPolicy,
                twists: bool = True):
    """log zeta_{P_n}(s); twists=False where no L is read at s, as at q s."""
    sums = sys.class_sums(pol.cutoff, s)
    return sum((sums.term(1.0, key, twists) for key in sums.slices
                if key[1] == n), 0j)


def log_zeta_P(sys: ZetaSystem, s, pol: TruncationPolicy):
    sums = sys.class_sums(pol.cutoff, s)
    return sum((sums.term(1.0, key) for key in sums.slices), 0j)
