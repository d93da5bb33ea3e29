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
from .continuation import GEvaluator, SingularityCatalog, SingularPoint
from .core import PRIME_DTYPE, ZetaSystem
from .errors import (BudgetExceededError, InvalidConfigError,
                     UnresolvedBoxError)
from .lfunctions import (DirichletCharacter, dirichlet_L, is_primitive_root,
                         kronecker_character, prime_order_character,
                         trivial_character)


class AbelianSystem(ZetaSystem):
    """ZetaSystem induced by a Dirichlet character of prime order q.

    frob_class of p is the discrete log j with chi(p) = e^{2 pi i j / q};
    ramified primes (chi(p) = 0) are excluded but recorded so the full
    Dedekind zeta can be reconstituted.
    """

    backend = "cyclic"

    def __init__(self, chi: DirichletCharacter, d: int | None = None):
        q = chi.order
        if q < 2 or any(q % k == 0 for k in range(2, q)):
            raise InvalidConfigError(f"character order {q} is not prime")
        super().__init__(group_order=q)
        self.chi = chi
        self._kronecker_d = d
        if d is not None:
            self.backend = "quadratic"
        self.ramified = [int(p) for p in prime_sieve.primes_up_to(chi.modulus)
                         if chi.modulus % int(p) == 0]
        # residue -> exponent of chi, -1 for residues of ramified primes
        self._exponents = np.full(chi.modulus, -1, dtype=np.int64)
        self._exponents[list(chi.exps)] = list(chi.exps.values())

    def _enumerate(self, X):
        p = prime_sieve.primes_up_to(X)
        j = self._exponents[p % self.chi.modulus]
        p, j = p[j >= 0], j[j >= 0]  # drop ramified primes
        table = np.empty(len(p), PRIME_DTYPE)
        table["norm"] = table["id"] = p
        table["frob_class"] = j
        table["frob_order"] = np.where(j == 0, 1, self.group_order)
        return table

    def params(self):
        if self._kronecker_d is not None:
            return {"d": self._kronecker_d}
        # chi(g) = e^{2 pi i/q} fixes chi only when g is a primitive root
        m = self.chi.modulus
        gen = next(a for a in range(2, m)
                   if self.chi.exps.get(a) == 1 and is_primitive_root(a, m))
        return {"modulus": m, "order": self.chi.order, "generator": gen}


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
    Meromorphic wherever the L-evaluations are (|Im s| <= ~100).  The
    callback broadcasts over arrays of s, as `find_zeros` requires.
    """
    q = sys.group_order
    zeta = trivial_character()
    chis = [sys.chi.power(j) for j in range(1, q)]
    ram = list(sys.ramified)

    def fn(s):
        """g elementwise over an array of s; a scalar is a batch of one and
        gives a Python complex."""
        z = np.asarray(s, dtype=complex)
        s = z.reshape(-1)
        num = dirichlet_L(s, zeta) ** (q - 1)
        for p in ram:
            num = num * (1.0 - np.exp(-s * math.log(p))) ** (q - 1)
        den = np.ones_like(s)
        for chi in chis:
            den = den * dirichlet_L(s, chi)
        out = num / den
        return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)

    return GEvaluator(fn, provenance="closed-form ratio of Dirichlet L-functions",
                      catalog=catalog, pole_order_at_one=q - 1)


# ---------------------------------------------------------------------------
# argument-principle zero search
# ---------------------------------------------------------------------------

_MAX_PHASE_DEPTH = 40


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


def _winding(f: Callable, corners: list[complex],
             samples: int = 8) -> tuple[int, float]:
    """Zeros-minus-poles count inside the closed polygon through corners.

    Also returns the total absolute phase variation along the boundary: a
    box whose winding is zero can still hide a cancelling zero-pole pair,
    which betrays itself through large boundary phase swings.
    """
    pts: list[complex] = []
    n = len(corners)
    for i in range(n):
        a, b = corners[i], corners[(i + 1) % n]
        for t in range(samples):
            pts.append(a + (b - a) * t / samples)
    vals = f(np.array(pts)).tolist()  # one batched call per box
    total = 0.0
    variation = 0.0
    m = len(pts)
    for i in range(m):
        d = _phase_change(f, pts[i], pts[(i + 1) % m],
                          vals[i], vals[(i + 1) % m])
        total += d
        variation += abs(d)
    w = total / (2 * math.pi)
    wi = round(w)
    if abs(w - wi) > 1e-6:
        raise UnresolvedBoxError(f"non-integer winding {w} on box {corners[0]}..{corners[2]}")
    return wi, variation


def _rect(re0, re1, im0, im1) -> list[complex]:
    return [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]


def _newton_refine(f, s0: complex, mult: int, tol: float = 1e-11,
                   max_iter: int = 60) -> complex:
    """Newton iteration s -> s - mult * f/f' with Richardson-extrapolated f'."""
    s = s0
    for _ in range(max_iter):
        h = 1e-6 * (1.0 + abs(s))
        d1 = (f(s + h) - f(s - h)) / (2 * h)
        d2 = (f(s + h / 2) - f(s - h / 2)) / h
        deriv = (4 * d2 - d1) / 3
        if deriv == 0:
            break
        step = mult * f(s) / deriv
        s -= step
        if abs(step) < tol:
            break
    return s


def find_zeros(evaluator: Callable | GEvaluator,
               T: float, *, re_margin: float = 1e-3, im_floor: float = 0.05,
               max_order: int = 3, budget: int = 4000) -> SingularityCatalog:
    """Catalog zeros and poles of `evaluator` in {0 < Re s < 1, 0 < Im s < T}.

    The evaluator must map an array of s to the array of its values (each
    box's boundary samples are one call) and a scalar to a scalar.

    Rectangles are scanned by the argument principle (adaptive phase tracking
    along the boundary), subdivided until each singular point is isolated,
    then refined by Newton iteration.  Orders come from winding counts;
    windings above `max_order` in an irreducibly small box are flagged.
    """
    if T > 100:
        raise InvalidConfigError("zero searches above T=100 are out of scope")
    f = evaluator.fn if isinstance(evaluator, GEvaluator) else evaluator

    points: list[SingularPoint] = []
    # initial horizontal slabs of height 1/2; the offsets keep box edges away
    # from zeta/L zeros, which lie at irrational-looking heights
    boxes = []
    im = im_floor
    while im < T:
        top = min(im + 0.5, T)
        boxes.append((re_margin, 1.0 - re_margin, im, top))
        im = top
    used = 0
    while boxes:
        used += 1
        if used > budget:
            raise BudgetExceededError("box subdivision budget exceeded")
        re0, re1, im0, im1 = boxes.pop()
        w, variation = _winding(f, _rect(re0, re1, im0, im1))
        width = max(re1 - re0, im1 - im0)
        # zero net winding can mask a cancelling zero-pole pair, which
        # betrays itself through large boundary phase swings: subdivide
        suspicious = variation >= 3.0 and width > 2e-2
        if w == 0 and not suspicious:
            continue
        if w == 0 or width > 2e-2 or abs(w) > max_order:
            if width < 1e-8:
                raise UnresolvedBoxError(
                    f"winding {w} unresolved below width 1e-8 near "
                    f"({re0 + re1})/2 + ({im0 + im1})/2 i")
            # split slightly off-center: zeros of interest sit on Re = 1/2
            # and an exact-midpoint cut would run straight through them
            rm = re0 + 0.5137 * (re1 - re0)
            imm = im0 + 0.4873 * (im1 - im0)
            boxes.extend([(re0, rm, im0, imm), (rm, re1, im0, imm),
                          (re0, rm, imm, im1), (rm, re1, imm, im1)])
            continue
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        if w > 0:
            s_ref = _newton_refine(f, center, w)
        else:
            s_ref = _newton_refine(lambda z: 1.0 / f(z), center, -w)
        if not (re0 - 1e-6 <= s_ref.real <= re1 + 1e-6
                and im0 - 1e-6 <= s_ref.imag <= im1 + 1e-6):
            s_ref = center  # refinement escaped; keep the box center estimate
        points.append(SingularPoint(location=s_ref, order=w))
    points.sort(key=lambda p: (p.location.imag, p.location.real))
    return SingularityCatalog(points=points, complete_up_to=T)
