"""Abelian zeta systems over Q and critical-strip singularity catalogs.

The quadratic and cyclic backends realize the prime-splitting data of an
abelian extension through a Dirichlet character; `g_closed_form` packages
the closed-form ratio zeta^{q-1} * (ramified corrections) / prod L(s, chi^j)
and `find_zeros` builds height-complete singularity catalogs by the
argument principle.  It takes each factor's zeros from sign changes of
Hardy's Z on Re s = 1/2 where they match Backlund's count of that factor's
zeros, sampling Z finer where two zeros hide between samples, and scans
boxes for a factor whose count the signs still miss.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import primes as prime_sieve
from .continuation import (GEvaluator, SingularityCatalog, SingularPoint,
                           _matches)
from .core import PrimeTable, ZetaSystem, class_dtype
from .errors import (BudgetExceededError, InvalidConfigError,
                     UnresolvedBoxError)
from .lfunctions import (HEIGHT_MAX, DirichletCharacter, dirichlet_L,
                         hardy_theta, kronecker_character, trivial_character)


class AbelianSystem(ZetaSystem):
    """ZetaSystem induced by a Dirichlet character of prime order q.

    frob_class of p is the discrete log j with chi(p) = e^{2 pi i j / q};
    ramified primes (chi(p) = 0) are excluded but recorded so the full
    Dedekind zeta can be reconstituted.
    """

    backend = "cyclic"

    def __init__(self, chi: DirichletCharacter, d: int | None = None):
        q = chi.order
        if prime_sieve.factorize(q) != {q: 1}:
            raise InvalidConfigError(f"character order {q} is not prime")
        super().__init__(group_order=q)
        self.chi = chi
        self.d = d  # the d of kronecker_system, None for a cyclic system
        if d is not None:
            self.backend = "quadratic"
        self.ramified = list(prime_sieve.factorize(chi.modulus))
        # residue -> class (exponent of chi, -1 if ramified) and -> order
        dt = class_dtype(q)
        self._classes = np.full(chi.modulus, -1, dtype=dt)
        self._classes[list(chi.exps)] = list(chi.exps.values())
        self._orders = np.where(self._classes == 0, 1, q).astype(dt)

    def _enumerate(self, X):
        p = prime_sieve.primes_up_to(X)
        # the ramified primes divide the modulus: drop them by index
        ram = np.searchsorted(p, [r for r in self.ramified if r <= X])
        norm = np.delete(p, ram).astype(float)
        residues = np.remainder(p, self.chi.modulus, out=p)
        return PrimeTable(norm, np.delete(self._classes[residues], ram),
                          np.delete(self._orders[residues], ram))


def kronecker_system(d: int) -> AbelianSystem:
    """Quadratic system: P_1 = split primes (d/p) = 1, P_2 = inert."""
    return AbelianSystem(kronecker_character(d), d=d)


def cyclic_system(chi: DirichletCharacter) -> AbelianSystem:
    """System of a prime-order character; frob_order(p) in {1, q}."""
    return AbelianSystem(chi)


# ---------------------------------------------------------------------------
# closed-form g
# ---------------------------------------------------------------------------

def g_closed_form(sys: AbelianSystem) -> GEvaluator:
    """Evaluator for g(s) = zeta_P(s)^q / Z_P(s) as a ratio of L-functions.

    g = zeta(s)^{q-1} * prod_{p ram} (1 - p^{-s})^{q-1} / prod_{j=1}^{q-1} L(s, chi^j).
    Meromorphic wherever the L-evaluations are, |Im s| <= HEIGHT_MAX, the
    evaluator's max_height.  The callback broadcasts over arrays of s, as
    `find_zeros` requires, and takes zeta and every L(s, chi^j) from one
    `dirichlet_L` call, whose Hurwitz calls share the union of their
    columns a = r/m and a = 1.  The evaluator's factors are zeta, with
    exponent q - 1, and each L(s, chi^j), with exponent -1, each with its
    character, which is primitive; the ramified factors vanish only on
    Re s = 0.  `find_zeros` scans them one by one.
    """
    q = sys.group_order
    chis = [trivial_character()] + [sys.chi.power(j) for j in range(1, q)]
    ram = list(sys.ramified)

    def fn(s):
        """g elementwise over an array of s; a scalar is a batch of one and
        gives a Python complex."""
        z = np.asarray(s, dtype=complex)
        s = z.reshape(-1)
        zeta, *Ls = dirichlet_L(s, chis)
        num = zeta ** (q - 1)
        for p in ram:
            num = num * (1.0 - np.exp(-s * math.log(p))) ** (q - 1)
        den = np.ones_like(s)
        for L in Ls:
            den = den * L
        out = num / den
        return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    def factor(chi: DirichletCharacter) -> Callable:
        return lambda s: dirichlet_L(s, chi)

    factors = [(factor(chi), q - 1 if chi.is_trivial else -1, chi)
               for chi in chis]
    return GEvaluator(fn, max_height=HEIGHT_MAX, pole_at_one=True,
                      factors=factors)


# ---------------------------------------------------------------------------
# argument-principle zero search
# ---------------------------------------------------------------------------

_MAX_PHASE_DEPTH = 40
_SAMPLES_PER_EDGE = 8  # steps per edge of a box or of the count's path
_RE_MARGIN = 1e-3  # the scan covers _RE_MARGIN < Re s < 1 - _RE_MARGIN
# larger windings, a multiple zero of one factor, are subdivided further
_MAX_ORDER = 3
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60
_IM_FLOOR = 0.05  # the first slab's bottom edge, off the real axis
_THETA_STEP = math.pi / 4  # theta(t, chi) moves by this between Z samples
_THETA_HALVINGS = 3  # _line_roots resamples Z at most this often, finer
_THETA_GRID = 16  # theta values per unit height that place those samples
_BRACKET_TOL = 1e-13  # a Hardy-Z bracket stops on a smaller Illinois step


def _evaluate(f: Callable, zs: np.ndarray) -> np.ndarray:
    """f at the points zs, each distinct one evaluated once, in order of
    first appearance, in one call."""
    distinct, first, row = np.unique(zs, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    return f(distinct[rank])[np.argsort(rank)][row]


def _segments(x0, y0, x1, y1, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The segments z0 -> z1 of n even steps along each edge (x0, y0) ->
    (x1, y1), over arrays of edges; each edge's last step ends exactly on
    its corner."""
    t = np.arange(n + 1)
    x, y = (np.where(t < n, a[..., None] + (b - a)[..., None] * t / n,
                     b[..., None]) for a, b in ((x0, x1), (y0, y1)))
    z = x + 1j * y
    return z[..., :-1].ravel(), z[..., 1:].ravel()


def _phase(f: Callable, z0: np.ndarray, z1: np.ndarray, f0: np.ndarray,
           f1: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """The phase change of f along each segment z0 -> z1, whose ends have
    the values f0 and f1, summed into n totals: segment i into total k[i].

    A step |arg(f1/f0)| < 1.9 is added to its total, any other segment is
    split, one bisection depth and `_evaluate` at a time.
    """
    totals = np.zeros(n)
    for depth in range(_MAX_PHASE_DEPTH + 1):
        zero = (f0 == 0) | (f1 == 0)
        if zero.any():
            i = zero.argmax()
            raise UnresolvedBoxError(f"contour passes through a zero near "
                                     f"{complex(z0[i])}..{complex(z1[i])}")
        d = np.angle(f1 / f0)
        ok = np.abs(d) < 1.9  # safely below pi: no aliasing possible
        np.add.at(totals, k[ok], d[ok])
        if ok.all():
            return totals
        if depth == _MAX_PHASE_DEPTH:
            i = ok.argmin()
            raise UnresolvedBoxError(f"phase tracking failed near "
                                     f"{complex(z0[i])}..{complex(z1[i])}")
        k, z0, z1, f0, f1 = (x[~ok] for x in (k, z0, z1, f0, f1))
        zm = 0.5 * (z0 + z1)
        fm = _evaluate(f, zm)
        k, z0, z1, f0, f1 = (np.concatenate(x) for x in (
            (k, k), (z0, zm), (zm, z1), (f0, fm), (fm, f1)))


def _windings(f: Callable, boxes: list[tuple]) -> list[int]:
    """Zeros-minus-poles count inside each box (re0, re1, im0, im1).

    Each box is outlined afresh, counterclockwise, by segments of
    _SAMPLES_PER_EDGE even steps per edge, all boxes' samples in one
    `_evaluate`, and its phase is tracked by `_phase`.
    """
    re0, re1, im0, im1 = np.array(boxes).T
    z0, z1 = _segments(*(np.stack(c, axis=1) for c in (
        (re0, re1, re1, re0), (im0, im0, im1, im1),
        (re1, re1, re0, re0), (im0, im1, im1, im0))), _SAMPLES_PER_EDGE)
    k = np.repeat(np.arange(len(boxes)), 4 * _SAMPLES_PER_EDGE)
    f0, f1 = _evaluate(f, np.concatenate([z0, z1])).reshape(2, -1)
    w = _phase(f, z0, z1, f0, f1, k, len(boxes)) / (2 * math.pi)
    off = np.abs(w - np.round(w)) > 1e-6
    if off.any():
        re0, re1, im0, im1 = boxes[off.argmax()]
        raise UnresolvedBoxError(
            f"non-integer winding {float(w[off][0])} on box "
            f"{complex(re0, im0)}..{complex(re1, im1)}")
    return np.round(w).astype(int).tolist()


def _split(boxes: list[tuple]) -> list[tuple]:
    """The four children of each box, bottom left, bottom right, top left,
    top right.  The cuts lie slightly off-center: zeros of interest sit on
    Re s = 1/2, and an exact-midpoint cut would run straight through them."""
    children = []
    for re0, re1, im0, im1 in boxes:
        rm, imm = re0 + 0.5137 * (re1 - re0), im0 + 0.4873 * (im1 - im0)
        children += [(re0, rm, im0, imm), (rm, re1, im0, imm),
                     (re0, rm, imm, im1), (rm, re1, imm, im1)]
    return children


def _newton_refine(f: Callable, starts: list[tuple[complex, int]]) -> list[complex]:
    """One root per (start, mult), by Newton steps s -> s - |mult| * f/f'
    with Richardson-extrapolated f' from all starts in lockstep, one call
    of f per iteration; each iterate stops on its own, on a step below
    _NEWTON_TOL or f' = 0, or unevaluated where it has left the strip
    0 < Re s < 1, |Im s| <= HEIGHT_MAX: a caller's bounds reject it as
    escaped.  A negative mult refines a pole of that order as a zero of
    1/f."""
    roots = [s for s, _ in starts]
    live = list(range(len(starts)))
    for _ in range(_NEWTON_MAX_ITER):
        live = [i for i in live if 0 < roots[i].real < 1
                and abs(roots[i].imag) <= HEIGHT_MAX]
        if not live:
            break
        hs = [1e-6 * (1.0 + abs(roots[i])) for i in live]
        vals = f(np.array([
            z for i, h in zip(live, hs) for s in [roots[i]]
            for z in (s + h, s - h, s + h / 2, s - h / 2, s)])).tolist()
        still = []
        for n, (i, h) in enumerate(zip(live, hs)):
            mult = starts[i][1]
            v = vals[5 * n:5 * n + 5]
            if mult < 0:
                v = [1.0 / x for x in v]  # Python complex division
            f_ph, f_mh, f_ph2, f_mh2, f_s = v
            d1 = (f_ph - f_mh) / (2 * h)
            d2 = (f_ph2 - f_mh2) / h
            deriv = (4 * d2 - d1) / 3
            if deriv != 0:
                step = abs(mult) * f_s / deriv
                roots[i] -= step
                if abs(step) >= _NEWTON_TOL:
                    still.append(i)
        live = still
    return roots


def _center(box: tuple) -> complex:
    re0, re1, im0, im1 = box
    return complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))


def _line_count(f: Callable, chi: DirichletCharacter, T: float,
                step: float = _THETA_STEP) -> tuple:
    """Backlund's count n of the zeros of f = L(s, chi) with _IM_FLOOR <
    Im s < T, the heights t where Hardy's Z(t, chi) is sampled, Z there,
    and theta(t, chi) as a function of t.

    Lambda(s) = (m/pi)^{(s+a)/2} Gamma((s+a)/2) f(s) = eps conj(Lambda(1 -
    conj s)), so the phase of Lambda around [-1, 2] x [_IM_FLOOR, T] is
    twice its phase along 1/2 + i t0 -> 2 + i t0 -> 2 + iT -> 1/2 + iT,
    t0 = _IM_FLOOR, and n = [theta(T) - theta(t0) + A(T) - A(t0)] / pi with
    A the phase of f along that path, _SAMPLES_PER_EDGE steps per edge
    (`_phase`).  Z is sampled where theta moves by `step`, from t0 to T.
    The path's samples and Z's go to f in one `_evaluate`.  Off t0 and
    T, theta is interpolated linearly from _THETA_GRID values per unit
    height; its error d, below 2e-3, scales Z by cos d, which keeps Z's
    signs and zeros.
    """
    t0 = _IM_FLOOR
    grid = np.linspace(t0, T, int(_THETA_GRID * (T - t0)) + 2)
    theta = hardy_theta(grid, chi)

    def theta_at(x):
        return np.interp(x, grid, theta)

    moved = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(theta)))])
    steps = max(1, math.ceil(moved[-1] / step))
    t = np.interp(np.linspace(0.0, moved[-1], steps + 1), moved, grid)
    z0, z1 = _segments(np.array([0.5, 2.0, 2.0]), np.array([t0, t0, T]),
                       np.array([2.0, 2.0, 0.5]), np.array([t0, T, T]),
                       _SAMPLES_PER_EDGE)
    values = _evaluate(f, np.concatenate([z0, z1, 0.5 + 1j * t]))
    f0, f1, line = np.split(values, [len(z0), 2 * len(z0)])
    a = _phase(f, z0, z1, f0, f1, np.zeros(len(z0), dtype=int), 1)[0]
    n = (theta[-1] - theta[0] + a) / math.pi
    return n, t, (np.exp(1j * theta_at(t)) * line).real, theta_at


def _illinois(f: Callable, theta: Callable, a: np.ndarray, b: np.ndarray,
              za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """The zero of Hardy's Z(t) = Re(e^{i theta(t)} f(1/2 + it)) in each
    bracket [a, b], where Z has the values za and zb of opposite signs.

    Illinois steps (regula falsi, halving the value at an end kept twice in
    a row) on all brackets in lockstep, one call of f per iteration.  Each
    iterate lies in its bracket, and each bracket stops on its own, at an
    iterate that moved less than _BRACKET_TOL or where Z is 0.
    """
    a, b, za, zb = (np.array(x, dtype=float) for x in (a, b, za, zb))
    root = 0.5 * (a + b)
    kept = np.zeros(len(a))  # +1: a was kept last, -1: b was
    live = np.arange(len(a))
    for _ in range(_NEWTON_MAX_ITER):
        if not live.size:
            break
        i = live
        c = np.clip((a[i] * zb[i] - b[i] * za[i]) / (zb[i] - za[i]),
                    a[i], b[i])
        zc = (np.exp(1j * theta(c)) * f(0.5 + 1j * c)).real
        right, left = zc * zb[i] > 0, zc * za[i] > 0  # c replaces b, or a
        za[i] *= np.where(right & (kept[i] > 0), 0.5, 1.0)
        zb[i] *= np.where(left & (kept[i] < 0), 0.5, 1.0)
        b[i], zb[i] = np.where(right, c, b[i]), np.where(right, zc, zb[i])
        a[i], za[i] = np.where(left, c, a[i]), np.where(left, zc, za[i])
        kept[i] = np.where(right, 1.0, np.where(left, -1.0, kept[i]))
        moved = np.abs(c - root[i])
        root[i] = c
        live = i[(zc != 0) & (moved >= _BRACKET_TOL)]
    return root


def _line_roots(f: Callable, chi: DirichletCharacter,
                T: float) -> list[complex] | None:
    """Every zero of f = L(s, chi) with _IM_FLOOR < Im s < T, if
    `_line_count` certifies them all simple and on Re s = 1/2, else None.

    Z's c sign changes bracket at least c zeros of odd order on the line;
    a count n within 1e-6 of c leaves one simple zero in each bracket and
    none elsewhere.  Two line zeros between two samples (a failure of
    Gram's law) hide from the signs but not from n, so a count that its
    sign changes miss, or a sample Z = 0, resamples Z with theta's step
    halved, up to _THETA_HALVINGS times, each try one `_line_count`.  An
    off-line or multiple zero, or two closer than the finest step, leaves
    n above c at every step and gives None, as does a path through a zero.
    """
    for k in range(_THETA_HALVINGS + 1):
        try:
            n, t, Z, theta = _line_count(f, chi, T, _THETA_STEP / 2 ** k)
        except UnresolvedBoxError:
            return None
        flips = np.flatnonzero(Z[:-1] * Z[1:] < 0)
        if abs(n - len(flips)) <= 1e-6 and (Z != 0).all():
            return [complex(0.5, x) for x in _illinois(
                f, theta, t[flips], t[flips + 1], Z[flips],
                Z[flips + 1]).tolist()]
    return None


def _scan(f: Callable, level: list[tuple], budget: int) -> tuple[list, int]:
    """(root, winding w) per zero or pole of f in the boxes of `level`, and
    the number of boxes scanned.

    A box of nonzero winding is split (`_split`) until it is at most 2e-2
    wide and |w| <= _MAX_ORDER, then refined by Newton on f from its
    center; an iterate that escapes the box splits it again.  So the scan
    finds a zero off the line or a multiple one.  It walks one subdivision
    level at a time: one `_windings` over fresh outlines of all its boxes,
    and one lockstep `_newton_refine` over its small boxes.  For an f that
    gives a point the same value in any batch, as `g_closed_form`'s
    functions do, the result does not depend on this batching.
    """
    found = []
    used = 0
    while level:
        used += len(level)
        if used > budget:
            raise BudgetExceededError("box subdivision budget exceeded")
        windings = _windings(f, level)
        width = [max(re1 - re0, im1 - im0) for re0, re1, im0, im1 in level]
        small = [i for i, w in enumerate(windings)
                 if w and width[i] <= 2e-2 and abs(w) <= _MAX_ORDER]
        roots = dict(zip(small, _newton_refine(
            f, [(_center(level[i]), windings[i]) for i in small])))
        keep = []
        for i, (box, w) in enumerate(zip(level, windings)):
            if w == 0:
                continue
            re0, re1, im0, im1 = box
            root = roots.get(i, complex(math.nan))  # nan: not refined
            if (re0 - 1e-6 <= root.real <= re1 + 1e-6
                    and im0 - 1e-6 <= root.imag <= im1 + 1e-6):
                found.append((root, w))
            elif width[i] < 1e-8:
                raise UnresolvedBoxError(
                    f"winding {w} unresolved below width 1e-8 near "
                    f"{_center(box)}")
            else:
                keep.append(box)
        level = _split(keep)
    return found, used


def find_zeros(evaluator: Callable | GEvaluator,
               T: float) -> SingularityCatalog:
    """Catalog zeros and poles of `evaluator` in {0 < Re s < 1, 0 < Im s < T}.

    The evaluator maps a 1-d array of s to the array of its values.  A
    GEvaluator with `factors`, as `g_closed_form` gives, is cataloged
    through them: each factor is holomorphic on the strip and scanned on its
    own, so zeros of two factors cannot cancel in a winding.  A factor that
    carries its character takes `_line_roots`: one zero count, Z sampled
    where theta moves by pi/4, or finer while the signs miss a zero of the
    count, and Illinois steps on Z's brackets.  A factor whose count its
    finest samples still miss, or that has no character, takes the box
    scan, `_scan`, from slabs of height 1/2.  A factor's point of winding k
    has order k * (its exponent); points of different factors within
    CLASS_MATCH_RTOL merge with the summed order, and order 0 is dropped.
    A point of order +-1 is refined again by Newton on g from the factor's
    root, kept if it agrees with that root; a higher order keeps the
    factor's root, where the zero is simple (Newton on a zero of order k
    reaches only about eps^(1/k)); a root of `_line_roots` has Re s = 1/2
    exactly.  The box budget, 4000 + 400 T, is shared by the factor scans.
    """
    if T > HEIGHT_MAX:
        raise InvalidConfigError(
            f"zero searches above T={HEIGHT_MAX:g} are out of scope")
    budget = int(4000 + 400 * T)
    g = evaluator.fn if isinstance(evaluator, GEvaluator) else evaluator
    factors = getattr(evaluator, "factors", None) or [(g, 1, None)]

    # initial horizontal slabs of height 1/2; the offsets keep box edges away
    # from zeta/L zeros, which lie at irrational-looking heights
    slabs = []
    im = _IM_FLOOR
    while im < T:
        top = min(im + 0.5, T)
        slabs.append((_RE_MARGIN, 1.0 - _RE_MARGIN, im, top))
        im = top
    merged: list[list] = []  # [root, order in g, factor] per point
    for f, exponent, chi in factors:
        roots = _line_roots(f, chi, T) if chi is not None and slabs else None
        if roots is None:
            found, used = _scan(f, slabs, budget)
            budget -= used
        else:
            found = [(root, 1) for root in roots]
        others = list(merged)  # a factor's own points are distinct
        for root, w in found:
            match = next((m for m in others if _matches(root, m[0])), None)
            if match is None:
                merged.append([root, w * exponent, f])
            else:
                match[1] += w * exponent
    # the order +-1 points of factors, refined again on g in one lockstep run
    ones = [m for m in merged if abs(m[1]) == 1 and m[2] is not g]
    for m, s_g in zip(ones, _newton_refine(g, [(m[0], m[1]) for m in ones])):
        if _matches(s_g, m[0]):
            m[0] = s_g
    points = [SingularPoint(location=root, order=order)
              for root, order, _ in merged if order != 0]
    points.sort(key=lambda p: (p.location.imag, p.location.real))
    return SingularityCatalog(points=points, complete_up_to=T)
