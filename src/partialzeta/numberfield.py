"""Abelian zeta systems over Q and critical-strip singularity catalogs.

The quadratic and cyclic backends realize the prime-splitting data of an
abelian extension through a Dirichlet character; `g_closed_form` packages
the closed-form ratio zeta^{q-1} * (ramified corrections) / prod L(s, chi^j)
and `find_zeros` builds height-complete singularity catalogs by the
argument principle.
"""
from __future__ import annotations

import cmath
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

def g_closed_form(sys: AbelianSystem,
                  catalog: SingularityCatalog | None = None) -> GEvaluator:
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
    return GEvaluator(fn, catalog=catalog, max_height=HEIGHT_MAX,
                      pole_at_one=True, factors=factors)


# ---------------------------------------------------------------------------
# argument-principle zero search
# ---------------------------------------------------------------------------

_MAX_PHASE_DEPTH = 40
_SAMPLES_PER_EDGE = 8  # boundary samples per box edge
# boxes whose windings are computed together; bounds the scan's own memory
_BOXES_PER_PASS = 256
_RE_MARGIN = 1e-3  # the scan covers _RE_MARGIN < Re s < 1 - _RE_MARGIN
# larger windings, a multiple zero of one factor, are subdivided further
_MAX_ORDER = 3
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 60


def _evaluate(f: Callable, memo: dict, zs: list[complex]) -> None:
    """Add f at each point of zs that memo lacks, in batched calls of at
    most _SAMPLES_PER_CALL points (the boundaries of 8 boxes); a point
    listed twice is evaluated once."""
    new = [z for z in dict.fromkeys(zs) if z not in memo]
    memo.update(zip(new, evaluate_in_chunks(f, new)))


def _phase_change(f: Callable, z0, z1, f0, f1,
                  depth: int = 0) -> float:
    """Continuous arg variation of f along [z0, z1] by adaptive bisection."""
    d = cmath.phase(f1 / f0)
    if abs(d) < 1.9:  # safely below pi: no aliasing possible once refined
        return d
    if depth >= _MAX_PHASE_DEPTH:
        raise UnresolvedBoxError(f"phase tracking failed near {z0}..{z1}")
    zm = 0.5 * (z0 + z1)
    fm = f(zm)
    if fm == 0:
        raise UnresolvedBoxError(f"contour passes through a zero at {zm}")
    return (_phase_change(f, z0, zm, f0, fm, depth + 1)
            + _phase_change(f, zm, z1, fm, f1, depth + 1))


def _bisect(f: Callable, memo: dict, segments: list[tuple]) -> None:
    """Add to memo f at every midpoint `_phase_change` bisects at.

    Walks the bisection trees of all segments (z0, z1, f0, f1) one depth at
    a time, so each depth is one batched evaluation; `_phase_change` then
    reads the values back and keeps its own summation order.
    """
    for _ in range(_MAX_PHASE_DEPTH):
        split = [seg for seg in segments
                 if abs(cmath.phase(seg[3] / seg[2])) >= 1.9]
        if not split:
            break
        mids = [0.5 * (z0 + z1) for z0, z1, _, _ in split]
        _evaluate(f, memo, mids)
        segments = [half for (z0, z1, f0, f1), zm in zip(split, mids)
                    if memo[zm] != 0
                    for half in ((z0, zm, f0, memo[zm]), (zm, z1, memo[zm], f1))]


def _windings(f: Callable, boxes: list[tuple]):
    """Zeros-minus-poles count inside each box (re0, re1, im0, im1).

    Yields the windings box by box.  The boxes are taken _BOXES_PER_PASS at
    a time; a pass evaluates the boundary samples of all its boxes, and then
    each bisection depth of the phase tracking, in batched calls of f.
    """
    m = 4 * _SAMPLES_PER_EDGE
    for start in range(0, len(boxes), _BOXES_PER_PASS):
        batch = boxes[start:start + _BOXES_PER_PASS]
        contours = []
        for re0, re1, im0, im1 in batch:
            corners = _rect(re0, re1, im0, im1)
            contours.append([a + (b - a) * t / _SAMPLES_PER_EDGE
                             for a, b in zip(corners, corners[1:] + corners[:1])
                             for t in range(_SAMPLES_PER_EDGE)])
        memo: dict[complex, complex] = {}
        _evaluate(f, memo, [z for pts in contours for z in pts])
        segments = [(pts[i], pts[(i + 1) % m],
                     memo[pts[i]], memo[pts[(i + 1) % m]])
                    for pts in contours for i in range(m)]
        _bisect(f, memo, segments)
        for k, (re0, re1, im0, im1) in enumerate(batch):
            total = 0.0
            for seg in segments[k * m:(k + 1) * m]:
                total += _phase_change(memo.__getitem__, *seg)
            w = total / (2 * math.pi)
            wi = round(w)
            if abs(w - wi) > 1e-6:
                raise UnresolvedBoxError(
                    f"non-integer winding {w} on box "
                    f"{complex(re0, im0)}..{complex(re1, im1)}")
            yield wi


def _rect(re0, re1, im0, im1) -> list[complex]:
    return [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]


def _newton_refine(f, s0: complex, mult: int) -> complex:
    """Newton iteration s -> s - |mult| * f/f' with Richardson-extrapolated f'.

    A negative mult refines a pole of that order as a zero of 1/f.  Each
    step evaluates its five points in one call.
    """
    s = s0
    for _ in range(_NEWTON_MAX_ITER):
        h = 1e-6 * (1.0 + abs(s))
        vals = f(np.array([s + h, s - h, s + h / 2, s - h / 2, s])).tolist()
        if mult < 0:
            vals = [1.0 / v for v in vals]  # Python complex division
        f_ph, f_mh, f_ph2, f_mh2, f_s = vals
        d1 = (f_ph - f_mh) / (2 * h)
        d2 = (f_ph2 - f_mh2) / h
        deriv = (4 * d2 - d1) / 3
        if deriv == 0:
            break
        step = abs(mult) * f_s / deriv
        s -= step
        if abs(step) < _NEWTON_TOL:
            break
    return s


def _center(box: tuple) -> complex:
    re0, re1, im0, im1 = box
    return complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))


def _scan(f: Callable, level: list[tuple], budget: int) -> tuple[list, int]:
    """(box, winding w, root) per zero or pole of f in the boxes of `level`,
    and the number of boxes scanned.

    A box of nonzero winding is split until it is at most 2e-2 wide and
    |w| <= _MAX_ORDER, then refined by Newton on f from its center; an
    iterate that escapes the box splits it again.  The scan walks one
    subdivision level at a time: boundary samples go to f in calls of at
    most _SAMPLES_PER_CALL points (8 boxes), a point shared by boxes once,
    each phase-bisection depth is batched the same way, and each Newton
    step is one call of five points.  For an f that gives a point the same
    value in any batch, as `g_closed_form`'s functions do, the result does
    not depend on this batching.
    """
    found = []
    used = 0
    while level:
        used += len(level)
        if used > budget:
            raise BudgetExceededError("box subdivision budget exceeded")
        children = []
        for box, w in zip(level, _windings(f, level)):
            if w == 0:
                continue
            re0, re1, im0, im1 = box
            width = max(re1 - re0, im1 - im0)
            if width <= 2e-2 and abs(w) <= _MAX_ORDER:
                root = _newton_refine(f, _center(box), w)
                if (re0 - 1e-6 <= root.real <= re1 + 1e-6
                        and im0 - 1e-6 <= root.imag <= im1 + 1e-6):
                    found.append((box, w, root))
                    continue
            if width < 1e-8:
                raise UnresolvedBoxError(
                    f"winding {w} unresolved below width 1e-8 near "
                    f"{_center(box)}")
            # split slightly off-center: zeros of interest sit on Re = 1/2
            # and an exact-midpoint cut would run straight through them
            rm = re0 + 0.5137 * (re1 - re0)
            imm = im0 + 0.4873 * (im1 - im0)
            children += [(re0, rm, im0, imm), (rm, re1, im0, imm),
                         (re0, rm, imm, im1), (rm, re1, imm, im1)]
        level = children
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
    points = []
    for root, order, box, f in merged:
        if abs(order) == 1 and f is not g:
            s_g = _newton_refine(g, _center(box), order)
            if _matches(s_g, root):
                root = s_g
        if order != 0:
            points.append(SingularPoint(location=root, order=order))
    points.sort(key=lambda p: (p.location.imag, p.location.real))
    return SingularityCatalog(points=points, complete_up_to=T)
