"""Prime tables, the Euler-product kernel and the class-slice sums.

`frobenius` sums these into truncated products in log space (complex,
principal branch per factor); `exp_of_log` exponentiates them, and
`TruncationPolicy.tail_bound` bounds |log(true/value)|.

A system's primes are one `PrimeTable` of columns: float64 norms, classes
in [0, #G) and orders in the smallest integer dtype holding #G, and ids
only where they are not the norms.  It is split once per cutoff into
contiguous (frob_class, frob_order) slices of norms.  `ClassSums` holds
the sums at s, one point or a 1-d array of points, the same path for both:
`term(j, key)` twists slice key = (c, n) by character j, w = e^{2 pi i j
c/#G}, with every twist of c from one norm^{-s} in one `log_product` call
over every point, and each sum is shared by every product at s.

`log_product`, the kernel under all of them, works leaf by leaf.  numpy's
np.sum of n complex numbers adds 0 to a tree that depends on n alone: a
node of more than 64 numbers sums its first (m - m % 8) / 2 apart from the
rest and adds the two.  `_leaves` cuts a slice into the subtrees of at
most LEAF norms, `_leaf_sums` takes np.sum of each twist's logs over a
leaf, and `_tree_sum` adds those sums up the tree, so every sum is np.sum
over the whole slice bit for bit (`TestPairwiseSumPrecondition` in the
tests) while the kernel holds no array of the slice's length.

It takes a batch of points s, a 1-d array (a scalar is a batch of one),
and a twist or a list of twists, and shares between them each leaf's log
p, each point's norm^{-s} between the twists, and, in a batch, the
factors of norm^{-s} that depend on one coordinate of s:

- each point of a shared height forms norm^{-s} as
  exp(-Re s log p) * (cos y, sin y), with y = -Im s log p, by
  `factored_exp`; the phase table exp(0 + iy) is computed once per height
  and leaf, and the real factor E, numpy's complex exp of a real argument,
  once per leaf for each real part that two or more such points have (at
  most REAL_TABLES of them), or by the point itself;
- glibc's cexp forms exp(x + iy) as exactly that pair of products for
  x <= 709 (see the `lfunctions` module docstring, and
  `TestLibmPrecondition` in the tests), so this is the bits of one complex
  exp per point, at the cost of two real products;
- a height that only one point of the batch has, or a point the identity
  does not cover, takes one complex exp, and needs no phase table.

`_log_one_minus` forms each twist's logs on contiguous float planes in
the buffers it is handed, z = -w norm^{-s} in the output's and the logs'
parts in the work array's, and its singular check reads the planes, so a
twist allocates no array of the leaf's length.  Every step before the sum
is elementwise, with the same floating-point operations in the same order
as the one-array-per-operation form, so every sum is bit-for-bit that of
`reference_log_product` in the tests with its one twist, however the
leaves were cut among threads.

The cuts run through `in_threads`, which starts one thread per CPU the
process may use, in copies of the caller's context so its np.errstate
holds on them, and joins every thread before it returns or raises.
numpy's ufuncs release the GIL.

- One point's leaves are cut into contiguous ranges, one per CPU; a slice
  of one leaf runs on the caller's thread.  Each range holds x = norm^{-s},
  a work array and, with two or more twists, one array for the logs, all
  one leaf long.
- A batch of two or more points takes its leaves in turn.  Per leaf, the
  E tables are filled over the CPUs, and then the points, in phase-group
  order, are cut into contiguous runs, one per CPU.  A run takes the
  leaf's shared-height path wherever the whole height is shared, so a
  point's bits do not depend on where the batch was cut, and computes a
  height's phase table where its group starts within the run.  Each
  thread holds x, work, the phase table and the logs' array, one leaf
  long, in one block that the next leaf reuses.

The error is the serial loop's: a leaf stops a point at its first singular
twist, and after the last leaf the points are checked in phase-group
order, each earlier twist's sum for +inf before the first singular twist
of any leaf is reported.
"""
from __future__ import annotations

import cmath
import contextvars
import functools
import math
import os
import sys as _sys
import threading
from collections import Counter
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
# a slice is summed leaf by leaf of numpy's pairwise sum, each leaf at most
# LEAF norms: a leaf's work arrays (0.5 MB each) stay in cache, and one
# point's leaf outweighs the start and join of a thread (README,
# Continuation grid)
LEAF = 2**15
# a batch tabulates exp(-Re s log p) over a leaf for at most this many
# shared real parts, 8 bytes per norm each; a point of another takes its own
REAL_TABLES = 16


def factored_exp(E: np.ndarray, cis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(x + iy) as cexp forms it for x <= CEXP_REAL_MAX, the pair
    (E cos y, E sin y) from real E = exp(x) and cis = exp(iy), written into
    out, imaginary part first: out may be cis, or hold E in its real part."""
    np.multiply(E, cis.imag, out=out.imag)
    np.multiply(E, cis.real, out=out.real)
    return out


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
    leaf-long work arrays, leaf by leaf of numpy's pairwise sum, one point's
    leaves cut into ranges and, per leaf, a batch's points into runs, one
    per thread, see the module docstring.
    """
    z = np.asarray(s, dtype=complex)
    pts = z.reshape(-1).tolist()
    ws = list(w) if np.ndim(w) else [w]
    n = len(norms)
    leaves = _leaves(n)
    # each leaf's sums per point and twist, and per point its first
    # singular twist, len(ws) where none is
    parts = np.zeros((len(leaves), len(pts), len(ws)), complex)
    firsts = np.full((len(leaves), len(pts)), len(ws))
    order = list(range(len(pts)))  # the order the serial loop meets errors in
    size = max((b - a for a, b in leaves), default=0)
    # x and work, then the phase table in a batch, then the logs of every
    # twist but the last, which overwrite x
    rows = 2 + (len(pts) > 1) + (len(ws) > 1)
    if leaves and len(pts) == 1:
        def fill_range(lo, hi):
            bufs = np.empty((rows, size), complex)
            for leaf in range(lo, hi):
                a, b = leaves[leaf]
                x, work, out = (bufs[r, :b - a] for r in (0, 1, -1))
                lg = np.log(norms[a:b], out=work.view(float)[:b - a])
                np.exp(np.multiply(-pts[0], lg, out=x), out=x)
                firsts[leaf, 0] = _leaf_sums(x, ws, out, work, parts[leaf, 0])

        in_threads(fill_range, len(leaves))
    elif leaves and len(pts) > 1:
        groups = _phase_groups(pts, norms, leaves)
        # (point, group, shared) in phase-group order, cut per leaf into
        # contiguous runs, one per thread
        runs = [(k, i, len(members) > 1) for i, members in enumerate(groups)
                for k in members]
        order = [k for k, _, _ in runs]
        # the real parts of two or more shared-height points, each with an
        # E table over the leaf, the most shared first
        counts = Counter(pts[k].real for k, _, shared in runs if shared)
        reals = [r for r, c in counts.most_common(REAL_TABLES) if c > 1]
        tables = np.empty((len(reals), size))
        table_of = {r: tables[t] for t, r in enumerate(reals)}
        pool = []  # one block of work arrays per thread, kept across leaves
        lg = np.empty(size)

        def fill_tables(lo, hi):
            bufs = pool.pop() if pool else np.empty((rows, size), complex)
            x = bufs[0, :len(logs)]
            for r in reals[lo:hi]:
                # Re exp(-Re s log p + 0i), the real factor of cexp
                np.multiply(-r, logs, out=x.real)
                x.imag = 0.0
                np.exp(x, out=x)
                table_of[r][:len(logs)] = x.real
            pool.append(bufs)

        def fill_run(lo, hi):
            bufs = pool.pop() if pool else np.empty((rows, size), complex)
            x, work, cis, out = (bufs[r, :len(logs)] for r in (0, 1, 2, -1))
            cis_group = None  # the group whose phase table cis holds
            for k, group, shared in runs[lo:hi]:
                p = pts[k]
                if not shared:
                    np.exp(np.multiply(-p, logs, out=x), out=x)
                else:
                    if group != cis_group:
                        # exp(0 + iy) with y = Im(-s log p), the same bits
                        # for every member (see _phase_groups); log p goes
                        # in as complex in work, the cast numpy would
                        # otherwise make in a buffer of its own
                        work.real, work.imag = logs, 0.0
                        np.multiply(-p, work, out=cis)
                        cis.real = 0.0
                        np.exp(cis, out=cis)
                        cis_group = group
                    E = table_of.get(p.real)
                    if E is None:
                        np.multiply(-p.real, logs, out=x.real)
                        x.imag = 0.0
                        E = np.exp(x, out=x).real
                    # exp(-Re s log p) * (cos y, sin y): cexp's own bits
                    factored_exp(E[:len(logs)], cis, x)
                firsts[leaf, k] = _leaf_sums(x, ws, out, work, parts[leaf, k])
            pool.append(bufs)

        for leaf, (a, b) in enumerate(leaves):
            logs = np.log(norms[a:b], out=lg[:b - a])
            if reals:
                in_threads(fill_tables, len(reals))
            in_threads(fill_run, len(runs))
    sums = (-_tree_sum(parts, n) if n
            else np.zeros((len(pts), len(ws)), complex))
    # the serial loop's error: the first point's in run order, where a
    # twist's sum is checked for +inf before a later twist's factors are
    for k in order:
        first = min(firsts[:, k], default=len(ws))
        # x within about 1e-8 of 1 rounds 2a + a^2 to -1 and its log1p to -inf
        if any(v.real == math.inf for v in sums[k, :first].tolist()):
            raise SingularLocalFactorError(
                f"local factor log not finite at s={pts[k]}")
        if first < len(ws):
            raise SingularLocalFactorError(f"singular local factor at s={pts[k]}")
    shape = z.shape + np.shape(w)
    return complex(sums[0, 0]) if shape == () else sums.reshape(shape)


def _leaves(n: int, lo: int = 0) -> list[tuple[int, int]]:
    """The (start, end) of each leaf of numpy's pairwise sum of n numbers
    from lo on, in order: the subtrees of at most LEAF numbers, where a
    node of m > 64 sums its first (m - m % 8) / 2 numbers apart from the
    rest."""
    if n <= LEAF:
        return [(lo, lo + n)] if n else []
    half = (n - n % 8) // 2
    return _leaves(half, lo) + _leaves(n - half, lo + half)


def _tree_sum(parts: np.ndarray, n: int) -> np.ndarray:
    """np.sum of n numbers from parts[l], the np.sum of leaf l of
    `_leaves(n)`, bit for bit: each node adds its halves' sums, and np.sum
    adds its total to 0.  Each parts[l] may be an array, summed entrywise.
    """
    leaf = iter(parts)

    def node(m):
        if m <= LEAF:
            return next(leaf)
        half = (m - m % 8) // 2
        return node(half) + node(m - half)

    return 0.0 + node(n)


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


def _leaf_sums(x: np.ndarray, ws: list, out: np.ndarray, work: np.ndarray,
               sums: np.ndarray) -> int:
    """Write into sums[i] np.sum of log(1 - w x) over a leaf, x = norm^{-s}
    over its norms, for each twist w = ws[i] before the first singular one,
    and return the index of that one, len(ws) if none is.  The last twist's
    logs overwrite x and every other's go into out, so out is written only
    where ws holds two or more twists."""
    for i, w in enumerate(ws):
        logs = x if i == len(ws) - 1 else out
        if not _log_one_minus(x, w, logs, work):
            return i
        sums[i] = np.sum(logs)
    return len(ws)


def _phase_groups(pts: list, norms: np.ndarray,
                  leaves: list) -> list[list[int]]:
    """The indices of pts grouped by height, each group sharing one phase
    table; a point the identity does not cover is a group of its own.

    y = Im(-s log p) is (-Re s) * 0 + (-Im s) * log p in numpy's complex
    product, so its bits depend only on Im s and on the sign of Re s, which
    a zero product can carry.  cexp(x + iy) is (exp(x) cos y, exp(x) sin y)
    only for x <= 709 and finite y, so the group asks that of every member,
    over the least and greatest log p of the norms, taken leaf by leaf.
    """
    ends = np.array([(np.min(lg), np.max(lg))
                     for lg in (np.log(norms[a:b]) for a, b in leaves)])
    lo, hi = float(np.min(ends[:, 0])), float(np.max(ends[:, 1]))
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

    A character of Z/#G is its index j: term(j, key) is the sum over slice
    key = (c, n) of -log(1 - w norm^{-s}), w = roots_of_unity(#G)[j c mod
    #G], one per point of an array, kept by that root index and so shared
    by every product at s that twists the slice by w; from the same
    norm^{-s} it computes, unless twists is False, every other twist a
    character gives c.  Where one of those is singular at some point, w is
    taken alone at every point, with the same bits: the kernel's sum for w
    does not depend on the other twists.
    """

    slices: dict[tuple[int, int], np.ndarray]
    s: complex | np.ndarray
    group_order: int
    _terms: dict = field(default_factory=dict)  # (root index, key) -> term

    def term(self, j: int, key: tuple[int, int], twists: bool = True):
        q = self.group_order
        r = j * key[0] % q
        t = self._terms.get((r, key))
        if t is None:
            rs = [r] + [i * key[0] % q for i in range(q) if twists]
            rs = [v for v in dict.fromkeys(rs) if (v, key) not in self._terms]
            ws = [complex(w) for w in roots_of_unity(q)[rs]]
            try:
                sums = log_product(self.slices[key], ws, self.s)
            except SingularLocalFactorError:  # w alone, as above
                rs = [r]
                sums = log_product(self.slices[key], ws[:1], self.s)
            # per twist, a Python complex at a point or an array over a batch
            sums = list(sums.T) if np.ndim(self.s) else sums.tolist()
            self._terms.update(zip([(v, key) for v in rs], sums))
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
