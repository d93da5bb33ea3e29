"""Functional equations, recursive continuation and boundary diagnostics.

The recursion f(s)^{q^r} = f(q^r s) * prod_{i<r} g(q^i s)^{q^{r-i-1}}
continues the partial zeta power into Re s > 1/q^r; the singularity
bookkeeping (omega set, q-power classes, weighted orders) feeds the
natural-boundary no-gap diagnostics.  All verdicts are finite-sample
statements, never proofs.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (TruncationPolicy, ZetaSystem, exp_of_log, log_product,
                   log_zeta_P, log_zeta_Pn)
from .errors import (DomainError, InsufficientDataError, InvalidConfigError,
                     PartialZetaError, PoleAtOneError)
from .frobenius import log_Z
from .lfunctions import POLE_RADIUS

CLASS_MATCH_RTOL = 1e-9
WEIGHT_ZERO_TOL = 1e-12
# a largest residue arc of ratio >= 1 + GAP_DELTA is reported as a gap
GAP_DELTA = 0.1
# log-spaced probe heights of the per-window gap listing
PROBE_COUNT = 32
# points per g call; bounds a call's memory
_SAMPLES_PER_CALL = 256


@dataclass(frozen=True)
class SingularPoint:
    """Zero (order > 0) or pole (order < 0) in the critical strip."""

    location: complex
    order: int

    def __post_init__(self):
        if self.order == 0:
            raise InvalidConfigError("singular point must have nonzero order")


@dataclass
class SingularityCatalog:
    """Finite singularity list, complete for 0 < Im < complete_up_to.

    A point at Im s <= 0 is refused: its dilates by powers of q never pass
    complete_up_to.
    """

    points: list[SingularPoint]
    complete_up_to: float

    def __post_init__(self):
        locs = [(round(p.location.real, 12), round(p.location.imag, 12))
                for p in self.points]
        if len(set(locs)) != len(locs):
            raise InvalidConfigError("catalog points must be pairwise distinct")
        if any(p.location.imag <= 0 for p in self.points):
            raise InvalidConfigError("catalog points need Im s > 0")

    def __len__(self):
        return len(self.points)

    def to_csv(self) -> str:
        lines = ["re,im,order"]
        for p in self.points:
            lines.append(f"{p.location.real:.15g},{p.location.imag:.15g},{p.order}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, complete_up_to: float) -> "SingularityCatalog":
        pts = []
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines or lines[0].replace(" ", "") != "re,im,order":
            raise InvalidConfigError("catalog CSV must start with header re,im,order")
        for ln in lines[1:]:
            try:
                re_s, im_s, order_s = ln.split(",")
                loc, order = complex(float(re_s), float(im_s)), int(order_s)
            except ValueError as exc:
                raise InvalidConfigError(f"bad catalog row {ln!r}") from exc
            if not cmath.isfinite(loc):
                raise InvalidConfigError(f"non-finite catalog row {ln!r}")
            pts.append(SingularPoint(loc, order))
        return cls(points=pts, complete_up_to=complete_up_to)


def evaluate_in_chunks(fn: Callable, zs: list[complex]) -> list[complex]:
    """fn at each point of zs, in calls of at most _SAMPLES_PER_CALL points."""
    vals = []
    for i in range(0, len(zs), _SAMPLES_PER_CALL):
        chunk = np.array(zs[i:i + _SAMPLES_PER_CALL], dtype=complex)
        vals += fn(chunk).tolist()
    return vals


@dataclass
class GEvaluator:
    """Meromorphic evaluator for g(s) = zeta_P(s)^q / Z_P(s).

    fn maps a 1-d array of s to the array of g at those points.  It is
    valid for |Im s| <= max_height and, with pole_at_one, raises within
    POLE_RADIUS of s = 1, the pole of zeta.  factors, if given, are pairs
    (h, k) of functions holomorphic on the critical strip, called like fn,
    and their exponents in g: g is prod h^k up to factors without zeros
    there.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    max_height: float = math.inf
    pole_at_one: bool = False
    factors: list[tuple[Callable[[np.ndarray], np.ndarray], int]] | None = None

    def refusal(self, s: complex) -> PartialZetaError | None:
        """The error g raises at s, or None where it can be evaluated."""
        if abs(s.imag) > self.max_height:
            return DomainError(f"g evaluated at Im s = {s.imag}, outside "
                               f"|Im s| <= {self.max_height}")
        if self.pole_at_one and abs(s - 1.0) < POLE_RADIUS:
            return PoleAtOneError(f"g has a pole at s = 1, evaluated at {s}")
        return None

    def __call__(self, s):
        """g at s, a scalar or an array of points."""
        z = np.asarray(s, dtype=complex)
        pts = z.reshape(-1).tolist()
        for p in pts:
            err = self.refusal(p)
            if err is not None:
                raise err
        vals = evaluate_in_chunks(self.fn, pts)
        return vals[0] if z.ndim == 0 else np.array(vals).reshape(z.shape)


@dataclass
class PartialZetaEvaluator:
    """Composite evaluator for f(s)^{q^r} via the continuation recursion,
    with q the group order of sys."""

    sys: ZetaSystem
    g: GEvaluator
    depth: int
    policy: TruncationPolicy

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidConfigError("depth r must be >= 0")
        try:
            float(self.sys.group_order) ** self.depth
        except OverflowError:
            raise InvalidConfigError(
                f"depth {self.depth}: q^r overflows a double") from None

    @property
    def domain_re_floor(self) -> float:
        return 1.0 / self.sys.group_order**self.depth

    def __call__(self, s):
        return continue_f_power(self, s)


def continue_f_power(ev: PartialZetaEvaluator, s, log: bool = False):
    """Value of f(s)^{q^r} = f(q^r s) * prod_{i<r} g(q^i s)^{q^{r-i-1}}.

    s is a scalar, which raises where the recursion cannot be evaluated, or
    a 1-d array of points, which gives nan there.  The Euler products at
    all points take one `log_product` call per class slice, and each level
    i one g evaluation over all points; each point's logs are then summed
    in the order of a lone evaluation, so a point's value does not depend
    on the batch.  With log, it gives log f(s)^{q^r} instead, which stays
    finite where the value leaves a double's range.
    """
    z = np.asarray(s, dtype=complex)
    pts = z.reshape(-1).tolist()
    errors = [_refusal(ev, p) for p in pts]
    if z.ndim == 0 and errors[0] is not None:
        raise errors[0]
    ok = [k for k, err in enumerate(errors) if err is None]
    q, r = ev.sys.group_order, ev.depth
    # Re(q^r s) > 1 in the domain, so |N(p)^{-q^r s}| <= 1/2 for norms >= 2
    # (every CLI backend) and no local factor is singular
    top = np.array([q**r * pts[k] for k in ok], dtype=complex)
    terms = [log_product(part, 1.0, top).tolist()
             for key, part in ev.sys.class_slices(ev.policy.cutoff).items()
             if key[1] == q]
    log_vals = [sum((t[j] for t in terms), 0j) for j in range(len(ok))]
    for i in range(r):
        g = evaluate_in_chunks(ev.g.fn, [q**i * pts[k] for k in ok])
        for j, gi in enumerate(g):
            log_vals[j] += q ** (r - i - 1) * cmath.log(gi)
    out = np.full(len(pts), complex(math.nan, math.nan))
    for k, v in zip(ok, log_vals):
        try:
            out[k] = v if log else exp_of_log(v)
        except DomainError:
            if z.ndim == 0:
                raise
    return complex(out[0]) if z.ndim == 0 else out


def _refusal(ev: PartialZetaEvaluator, s: complex) -> PartialZetaError | None:
    """Why the recursion cannot be evaluated at s, or None."""
    if not s.real > ev.domain_re_floor:
        return DomainError(
            f"Re s = {s.real} outside domain Re s > 1/q^r = {ev.domain_re_floor}")
    for i in range(ev.depth):
        err = ev.g.refusal(ev.sys.group_order**i * s)
        if err is not None:
            return err
    return None


# ---------------------------------------------------------------------------
# functional-equation residuals (all over one identical truncated prime set)
# ---------------------------------------------------------------------------

def feq_residual(sys: ZetaSystem, s: complex, X: float) -> float:
    """Residual of zeta_{P_q}(s)^q / zeta_{P_q}(qs) = zeta_P(s)^q / Z_P(s)."""
    q = sys.group_order
    pol = TruncationPolicy(X)
    lhs = (q * log_zeta_Pn(sys, q, s, pol)
           - log_zeta_Pn(sys, q, q * s, pol, twists=False))
    rhs = q * log_zeta_P(sys, s, pol) - log_Z(sys, s, pol)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# singularity bookkeeping
# ---------------------------------------------------------------------------

def _matches(z: complex, w: complex, rtol: float = CLASS_MATCH_RTOL) -> bool:
    return (abs(z.real - w.real) <= rtol * max(1.0, abs(w.real))
            and abs(z.imag - w.imag) <= rtol * max(1.0, abs(w.imag)))


def mq_classes(cat: SingularityCatalog, q: int) -> list[tuple[complex, float]]:
    """Partition the catalog into q-power classes with weights M_q.

    Each class is keyed by its lowest-height representative sigma; the weight
    is sum over members sigma' = q^k sigma of q^{-k} m(sigma').  q < 2
    would never dilate a point past the catalog height.
    """
    if q < 2:
        raise InvalidConfigError(f"q-power classes need q >= 2, got {q}")
    pts = sorted(cat.points, key=lambda p: (p.location.imag, p.location.real))
    assigned = [False] * len(pts)
    classes = []
    for i, rep in enumerate(pts):
        if assigned[i]:
            continue
        assigned[i] = True
        weight = float(rep.order)
        k = 1
        target = rep.location * q
        while target.imag <= cat.complete_up_to * (1 + 1e-9):
            for j in range(i + 1, len(pts)):
                if not assigned[j] and _matches(pts[j].location, target):
                    assigned[j] = True
                    weight += pts[j].order / q**k
                    break
            k += 1
            target = rep.location * q**k
        classes.append((rep.location, weight))
    return classes


def lambda_q_betas(cat: SingularityCatalog, q: int) -> list[float]:
    """Sorted imaginary parts of the nonzero-weight class representatives."""
    return sorted(z.imag for z, w in mq_classes(cat, q)
                  if abs(w) > WEIGHT_ZERO_TOL)


def counting_functions(cat: SingularityCatalog, q: int, T: float,
                       alpha: float) -> tuple[int, int, int]:
    """(I(T), J_alpha(T), Omega_q(T)) empirical counters.

    I(T): catalog zeros on Re = 1/2 (within 1e-6) below T.
    J_alpha(T): total pole order with 0 < Re < alpha below T.
    Omega_q(T): dilates q^{-k} beta of the nonzero-weight class
    representatives with beta_min / q^3 < Im < T; the paper's set is
    infinite toward Im -> 0, so that height floor makes the count finite and
    reproducible.
    """
    if not 0 < alpha < 0.5:
        raise InvalidConfigError("alpha must lie in (0, 1/2)")
    i_count = sum(1 for p in cat.points
                  if p.order > 0 and abs(p.location.real - 0.5) < 1e-6
                  and 0 < p.location.imag < T)
    j_count = sum(-p.order for p in cat.points
                  if p.order < 0 and 0 < p.location.real < alpha
                  and 0 < p.location.imag < T)
    betas = lambda_q_betas(cat, q)
    if not betas:
        return i_count, j_count, 0
    floor = min(betas) / q**3
    omega_count = 0
    for b in betas:
        k = 0
        while b / q**k > floor:
            if b / q**k < T:
                omega_count += 1
            k += 1
    return i_count, j_count, omega_count


# ---------------------------------------------------------------------------
# natural-boundary report
# ---------------------------------------------------------------------------

def boundary_report(cat: SingularityCatalog, q: int, T: float) -> dict:
    """Finite-height natural-boundary diagnostics.

    The no-gap search works on the residues log(beta_j) mod log(q): an empty
    multiplicative window (T1, T2) that survives all q-dilations corresponds
    exactly to an empty arc on that circle, which is robust against the
    finite catalog height (naive gaps in the top octave of the point multiset
    are truncation artifacts).
    """
    if not cat.points:
        raise InsufficientDataError("empty singularity catalog")
    betas = [b for b in lambda_q_betas(cat, q) if b < T * (1 + 1e-12)]
    if len(betas) < 10:
        raise InsufficientDataError(
            f"only {len(betas)} classes in Lambda_q, need >= 10")

    # finite-sample trend of beta_j^(1/j), j >= 1 (indexing from beta_0)
    ratios = [betas[j] ** (1.0 / j) for j in range(1, len(betas))]
    half = len(ratios) // 2
    js = np.arange(half, len(ratios), dtype=float)
    ratio_slope = float(np.polyfit(js, np.array(ratios[half:]), 1)[0])
    logb = np.log(np.array(betas[half:]))
    logb_slope = float(np.polyfit(np.arange(half, len(betas), dtype=float),
                                  logb, 1)[0])
    trend = {"last_ratio": ratios[-1], "ratio_slope": ratio_slope,
             "log_beta_slope": logb_slope}

    logq = math.log(q)
    residues = sorted(math.log(b) % logq for b in betas)
    arcs = []  # (arc_length, lo_residue, hi_residue) between adjacent residues
    for i, lo in enumerate(residues):
        if i + 1 < len(residues):
            length = residues[i + 1] - lo
        else:
            length = residues[0] + logq - lo  # wrap-around arc
        arcs.append((length, lo, lo + length))
    max_arc = max(arcs)

    beta_min = betas[0]
    scale_k = math.ceil((math.log(beta_min) - max_arc[1]) / logq)

    # per-probe windows at log-spaced heights (diagnostic view of the gaps)
    gaps = []
    probes = np.geomspace(beta_min / q**3, T, num=PROBE_COUNT)
    for t in probes:
        # probes[0] = beta_min / q^3 lies exactly on a residue; the nudge
        # makes it open the window starting there however log() rounds,
        # instead of the last bit of beta_min picking the window before
        r = (math.log(t) + 1e-12) % logq
        arc = next((a for a in arcs if a[1] <= r < a[2]), None)
        if arc is None:  # wrap-around arc
            arc = arcs[-1]
        k = round((math.log(t) - (arc[1] + arc[2]) / 2) / logq)
        t1, t2 = math.exp(arc[1] + k * logq), math.exp(arc[2] + k * logq)
        entry = {"t1": t1, "t2": t2, "ratio": math.exp(arc[0])}
        if entry not in gaps:
            gaps.append(entry)

    gap_ratio = math.exp(max_arc[0])
    gap_found = gap_ratio >= 1.0 + GAP_DELTA and len(residues) > 1
    trend_ok = ratios[-1] < 1.1 or (half > 0 and ratio_slope < -1e-6)
    if gap_found:
        verdict = "gap-found"
    elif trend_ok:
        verdict = "consistent-with-natural-boundary"
    else:
        verdict = "inconclusive"

    return {
        "betas": betas,
        "trend": trend,
        "gaps": gaps,
        "largest_gap": {"t1": math.exp(max_arc[1] + scale_k * logq),
                        "t2": math.exp(max_arc[2] + scale_k * logq),
                        "ratio": gap_ratio},
        "delta": GAP_DELTA,
        "verdict": verdict,
    }
