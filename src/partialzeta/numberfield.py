"""Abelian zeta systems over Q and critical-strip singularity catalogs.

The quadratic and cyclic backends realize the prime-splitting data of an
abelian extension through a Dirichlet character; `g_closed_form` packages
the closed-form ratio zeta^{q-1} * (ramified corrections) / prod L(s, chi^j)
and `find_zeros` builds height-complete singularity catalogs by the
argument principle.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import primes as prime_sieve
from .continuation import (GEvaluator, SingularityCatalog, SingularPoint,
                           _matches, evaluate_in_chunks)
from .core import PrimeTable, ZetaSystem, class_dtype
from .errors import (BudgetExceededError, InvalidConfigError,
                     UnresolvedBoxError)
from .lfunctions import (HEIGHT_MAX, DirichletCharacter, dirichlet_L,
                         kronecker_character, trivial_character)


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
    `dirichlet_L` call, that is one Hurwitz call over the union of their
    columns a = r/m and a = 1.  The evaluator's factors are zeta, with
    exponent q - 1, and each L(s, chi^j), with exponent -1; the ramified
    factors vanish only on Re s = 0.  `find_zeros` scans them one by one.
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

    factors = [(factor(chi), q - 1 if chi.is_trivial else -1) for chi in chis]
    return GEvaluator(fn, max_height=HEIGHT_MAX, pole_at_one=True,
                      factors=factors)


# ---------------------------------------------------------------------------
# argument-principle zero search
# ---------------------------------------------------------------------------

_MAX_PHASE_DEPTH = 40
_SAMPLES_PER_EDGE = 8  # boundary samples per box edge
_RE_MARGIN = 1e-3  # the scan covers _RE_MARGIN < Re s < 1 - _RE_MARGIN
# larger windings, a multiple zero of one factor, are subdivided further
_MAX_ORDER = 3
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60


def _evaluate(f: Callable, zs: np.ndarray) -> np.ndarray:
    """f at the points zs, each distinct one evaluated once, in order of
    first appearance and in calls of at most _SAMPLES_PER_CALL points."""
    distinct, first, row = np.unique(zs, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    vals = np.array(evaluate_in_chunks(f, distinct[rank]), dtype=complex)
    return vals[np.argsort(rank)][row]


def _segments(x0, y0, x1, y1) -> tuple[np.ndarray, np.ndarray]:
    """(z0, z1) of _SAMPLES_PER_EDGE even steps along lines (x0, y0) -> (x1, y1)."""
    t = np.arange(_SAMPLES_PER_EDGE + 1)
    x, y = (np.where(t < _SAMPLES_PER_EDGE,
                     a[..., None] + (b - a)[..., None] * t / _SAMPLES_PER_EDGE,
                     b[..., None]) for a, b in ((x0, x1), (y0, y1)))
    z = x + 1j * y
    return z[..., :-1].ravel(), z[..., 1:].ravel()


def _windings(f: Callable, boxes: list[tuple],
              contour: tuple | None = None) -> tuple[list[int], tuple]:
    """Zeros-minus-poles count inside each box (re0, re1, im0, im1), and the
    resolved contour: the segments whose phase step was accepted.

    A contour is the arrays (box, z0, z1, f(z0), f(z1)) over segments z0 ->
    z1 along each box's edges, counterclockwise; by default _SAMPLES_PER_EDGE
    per edge.  A step |arg(f1/f0)| < 1.9 is added to its box's total, any
    other segment is split, one bisection depth and `_evaluate` at a time.
    """
    if contour is None:
        re0, re1, im0, im1 = np.array(boxes).T
        z0, z1 = _segments(*(np.stack(c, axis=1) for c in (
            (re0, re1, re1, re0), (im0, im0, im1, im1),
            (re1, re1, re0, re0), (im0, im1, im1, im0))))
        contour = (np.repeat(np.arange(len(boxes)), 4 * _SAMPLES_PER_EDGE),
                   z0, z1, *_evaluate(f, np.concatenate([z0, z1])).reshape(2, -1))
    totals = np.zeros(len(boxes))
    resolved = []
    for depth in range(_MAX_PHASE_DEPTH + 1):
        k, z0, z1, f0, f1 = contour
        zero = (f0 == 0) | (f1 == 0)
        if zero.any():
            i = zero.argmax()
            raise UnresolvedBoxError(f"contour passes through a zero near "
                                     f"{complex(z0[i])}..{complex(z1[i])}")
        d = np.angle(f1 / f0)
        ok = np.abs(d) < 1.9  # safely below pi: no aliasing possible
        np.add.at(totals, k[ok], d[ok])
        resolved.append([x[ok] for x in contour])
        if ok.all():
            break
        if depth == _MAX_PHASE_DEPTH:
            i = ok.argmin()
            raise UnresolvedBoxError(f"phase tracking failed near "
                                     f"{complex(z0[i])}..{complex(z1[i])}")
        k, z0, z1, f0, f1 = (x[~ok] for x in contour)
        zm = 0.5 * (z0 + z1)
        fm = _evaluate(f, zm)
        contour = tuple(np.concatenate(x) for x in (
            (k, k), (z0, zm), (zm, z1), (f0, fm), (fm, f1)))
    w = totals / (2 * math.pi)
    off = np.abs(w - np.round(w)) > 1e-6
    if off.any():
        re0, re1, im0, im1 = boxes[off.argmax()]
        raise UnresolvedBoxError(
            f"non-integer winding {float(w[off][0])} on box "
            f"{complex(re0, im0)}..{complex(re1, im1)}")
    return (np.round(w).astype(int).tolist(),
            tuple(np.concatenate(x) for x in zip(*resolved)))


def _split(f: Callable, boxes: list[tuple], contour: tuple,
           keep: list[int]) -> tuple[list[tuple], tuple]:
    """The four children of each box boxes[i], i in keep, and their contour:
    a child's share of its parent's resolved `contour`, cut where the cuts
    meet it, and fresh segments on each half of the two cuts, which the
    children on either side run in opposite directions."""
    re0, re1, im0, im1 = np.array([boxes[i] for i in keep]).reshape(-1, 4).T
    # split slightly off-center: zeros of interest sit on Re = 1/2
    # and an exact-midpoint cut would run straight through them
    rm, imm = re0 + 0.5137 * (re1 - re0), im0 + 0.4873 * (im1 - im0)
    children = np.stack([re0, rm, im0, imm, rm, re1, im0, imm, re0, rm, imm,
                         im1, rm, re1, imm, im1], axis=1).reshape(-1, 4)
    pos = np.full(len(boxes), -1)
    pos[keep] = np.arange(len(keep))
    k, z0, z1, f0, f1 = contour
    j, z0, z1, f0, f1 = (x[pos[k] >= 0] for x in (pos[k], z0, z1, f0, f1))
    across_re = (z0.real - rm[j]) * (z1.real - rm[j]) < 0
    across_im = (z0.imag - imm[j]) * (z1.imag - imm[j]) < 0
    cut = across_re | across_im
    zc = (np.where(across_re, rm[j], z0.real)
          + 1j * np.where(across_im, imm[j], z0.imag))[cut]
    # the halves of the cuts, from the center to each edge point
    a, b = _segments(*(np.stack(c, axis=1) for c in (
        (rm,) * 4, (imm,) * 4, (rm, re1, rm, re0), (im0, imm, im1, imm))))
    fa, fb, fc = np.split(_evaluate(f, np.concatenate([a, b, zc])),
                          [a.size, 2 * a.size])
    jh = np.repeat(np.arange(len(keep)), 4 * _SAMPLES_PER_EDGE)
    j, z0, z1, f0, f1 = (np.concatenate(x) for x in (
        (j[~cut], j[cut], j[cut], jh, jh),
        (z0[~cut], z0[cut], zc, a, b), (z1[~cut], zc, z1[cut], b, a),
        (f0[~cut], f0[cut], fc, fa, fb), (f1[~cut], fc, f1[cut], fb, fa)))
    # a segment's child is on its left, as a contour runs counterclockwise
    mid, step = 0.5 * (z0 + z1), z1 - z0
    right = (mid.real > rm[j]) | ((mid.real == rm[j]) & (step.imag < 0))
    top = (mid.imag > imm[j]) | ((mid.imag == imm[j]) & (step.real > 0))
    return ([tuple(box) for box in children.tolist()],
            (4 * j + right + 2 * top, z0, z1, f0, f1))


def _newton_refine(f: Callable, starts: list[tuple[complex, int]]) -> list[complex]:
    """One root per (start, mult), by Newton steps s -> s - |mult| * f/f'
    with Richardson-extrapolated f' from all starts in lockstep, one call
    per _SAMPLES_PER_CALL points; each iterate stops on its own, on a step
    below _NEWTON_TOL or f' = 0.  A negative mult refines a pole of that
    order as a zero of 1/f."""
    roots = [s for s, _ in starts]
    live = list(range(len(starts)))
    for _ in range(_NEWTON_MAX_ITER):
        if not live:
            break
        hs = [1e-6 * (1.0 + abs(roots[i])) for i in live]
        vals = evaluate_in_chunks(f, [
            z for i, h in zip(live, hs) for s in [roots[i]]
            for z in (s + h, s - h, s + h / 2, s - h / 2, s)])
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


def _scan(f: Callable, level: list[tuple], budget: int) -> tuple[list, int]:
    """(box, winding w, root) per zero or pole of f in the boxes of `level`,
    and the number of boxes scanned.

    A box of nonzero winding is split (`_split`) until it is at most 2e-2
    wide and |w| <= _MAX_ORDER, then refined by Newton on f from its center;
    an iterate that escapes the box splits it again.  The scan walks one
    subdivision level at a time: one `_windings` over its contours, which
    only level 0 samples afresh, and one lockstep `_newton_refine` over its
    small boxes.  For an f that gives a point the same value in any batch,
    as `g_closed_form`'s functions do, the result does not depend on this
    batching.
    """
    found = []
    used = 0
    contour = None
    while level:
        used += len(level)
        if used > budget:
            raise BudgetExceededError("box subdivision budget exceeded")
        windings, contour = _windings(f, level, contour)
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
                found.append((box, w, root))
            elif width[i] < 1e-8:
                raise UnresolvedBoxError(
                    f"winding {w} unresolved below width 1e-8 near "
                    f"{_center(box)}")
            else:
                keep.append(i)
        level, contour = _split(f, level, contour, keep)
    return found, used


def find_zeros(evaluator: Callable | GEvaluator,
               T: float, *, im_floor: float = 0.05) -> SingularityCatalog:
    """Catalog zeros and poles of `evaluator` in {0 < Re s < 1, 0 < Im s < T}.

    The evaluator maps a 1-d array of s to the array of its values.  A
    GEvaluator with `factors`, as `g_closed_form` gives, is cataloged
    through them: each factor is holomorphic on the strip and scanned on its
    own, so zeros of two factors cannot cancel in a winding.  A factor's
    point of winding k has order k * (its exponent); points of different
    factors within CLASS_MATCH_RTOL merge with the summed order, and order 0
    is dropped.  A point of order +-1 is refined again by Newton on g from
    the center of its box, kept if it agrees with the factor's root; a
    higher order keeps the factor's root, where the zero is simple (Newton
    on a zero of order k reaches only about eps^(1/k)).  The box budget,
    4000 + 400 T, is shared by the factor scans.
    """
    if T > HEIGHT_MAX:
        raise InvalidConfigError(
            f"zero searches above T={HEIGHT_MAX:g} are out of scope")
    budget = int(4000 + 400 * T)
    g = evaluator.fn if isinstance(evaluator, GEvaluator) else evaluator
    factors = getattr(evaluator, "factors", None) or [(g, 1)]

    # initial horizontal slabs of height 1/2; the offsets keep box edges away
    # from zeta/L zeros, which lie at irrational-looking heights
    slabs = []
    im = im_floor
    while im < T:
        top = min(im + 0.5, T)
        slabs.append((_RE_MARGIN, 1.0 - _RE_MARGIN, im, top))
        im = top
    merged: list[list] = []  # [root, order in g, box, factor] per point
    for f, exponent in factors:
        found, used = _scan(f, slabs, budget)
        budget -= used
        others = list(merged)  # a factor's own points are distinct
        for box, w, root in found:
            match = next((m for m in others if _matches(root, m[0])), None)
            if match is None:
                merged.append([root, w * exponent, box, f])
            else:
                match[1] += w * exponent
    # the order +-1 points of factors, refined again on g in one lockstep run
    ones = [m for m in merged if abs(m[1]) == 1 and m[3] is not g]
    for m, s_g in zip(ones, _newton_refine(
            g, [(_center(box), order) for _, order, box, _ in ones])):
        if _matches(s_g, m[0]):
            m[0] = s_g
    points = [SingularPoint(location=root, order=order)
              for root, order, _, _ in merged if order != 0]
    points.sort(key=lambda p: (p.location.imag, p.location.real))
    return SingularityCatalog(points=points, complete_up_to=T)
