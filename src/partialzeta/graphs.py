"""Ihara zeta functions, voltage coverings and exact u-domain identities.

Everything on the graph side is exact.  Every determinant is det(I - uM)
from one division-free routine (Berkowitz's recurrence) over the integers or
Z[zeta_q]: on the non-backtracking edge matrix for edge determinants, and on
the n x n twisted adjacency matrix, through the vertex-side Ihara-Bass
formula, for zeta_X and the L-functions of Z/q voltages.  The L-functions
take one Berkowitz run per Galois orbit of characters: the trivial one on
ints, and chi_1, whose conjugates give every other nontrivial L.
"""
from __future__ import annotations

import cmath
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import PrimeTable, ZetaSystem, class_dtype
from .errors import BudgetExceededError, InvalidConfigError
from .primes import factorize
from .series import Cyclotomic, ExactSeries, poly_gcd, poly_divmod, squarefree_decomposition

CYCLE_ENUM_CAP = 2_000_000  # prenecklace nodes of one primitive-cycle enumeration
# largest cover group order: products in Z[zeta_q] cost O(q^2), and the
# L-product takes most of a large cover's time (README, CLI)
MAX_COVER_ORDER = 19
# largest cover, in oriented edges 2 m q_c: Petersen/Z5, the largest in the
# tests.  The cover is checked by its vertex determinant on n q_c vertices,
# which grows with the cover as the L-product does.  The base's edge
# determinant (bass_identity), on 2m oriented edges, grows with the bound
# too, so a larger bound needs a bound on m as well.
MAX_COVER_EDGES = 150


class MultiGraph:
    """Finite undirected multigraph (loops and parallel edges allowed).

    Oriented edge 2*i runs along edge i as listed, 2*i+1 is its reversal.
    """

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        if n < 1:
            raise InvalidConfigError("graph needs at least one vertex")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidConfigError(f"edge ({u},{v}) out of vertex range")
        self.n = n
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.m = len(edges)
        self.tail = []
        self.head = []
        for u, v in self.edges:
            self.tail += [u, v]
            self.head += [v, u]

    @property
    def regularity(self) -> int:
        # one pass over the oriented edges' tails, so a loop counts twice;
        # a vertex on no edge has degree 0
        counts = Counter(self.tail)
        degs = set(counts.values()) | ({0} if len(counts) < self.n else set())
        if len(degs) != 1:
            raise InvalidConfigError(f"graph is not regular: degrees {sorted(degs)}")
        return degs.pop()

    @property
    def q_g(self) -> int:
        """Degree parameter: the graph is (q_g + 1)-regular."""
        return self.regularity - 1

    def is_connected(self) -> bool:
        if self.m < self.n - 1:  # connecting n vertices takes n - 1 edges
            return False
        seen, stack = {0}, [0]
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def successors(self) -> list[list[int]]:
        """Each oriented edge's NBT successors f: head(e) = tail(f), f != reverse(e)."""
        k = 2 * self.m
        return [[f for f in range(k) if self.head[e] == self.tail[f] and f != e ^ 1]
                for e in range(k)]

    def edge_matrix(self) -> np.ndarray:
        """Non-backtracking oriented-edge matrix T: T[e, f] = 1 iff f succeeds e."""
        t = np.zeros((2 * self.m, 2 * self.m), dtype=np.int64)
        for e, fs in enumerate(self.successors()):
            t[e, fs] = 1
        return t


# ---------------------------------------------------------------------------
# exact determinants
# ---------------------------------------------------------------------------

def _det_one_minus_u(mat: list[list]) -> list:
    """Coefficients [1, c_1, ..., c_n] of det(I - uM), low degree first.

    These are the characteristic-polynomial coefficients of M, highest power
    first, from Berkowitz's recurrence (Inf. Process. Lett. 18, 1984): the
    leading (k+1)-block's polynomial is the leading k-block's convolved with
    [1, -M_kk, -R C, -R B C, ..., -R B^{k-1} C], where B is the leading
    k-block, R and C the row and column that border it.  Only +, - and * are
    used, so entries may be ints or Cyclotomics alike.
    """
    n = len(mat)
    nonzero = [[(j, a) for j, a in enumerate(row) if a != 0] for row in mat]
    coeffs = [1]
    for k in range(n):
        t = [1, -mat[k][k]]
        v = [mat[i][k] for i in range(k)]  # B^i C, starting at C
        for _ in range(k):
            t.append(-sum(a * v[j] for j, a in nonzero[k] if j < k))
            v = [sum(a * v[j] for j, a in nonzero[i] if j < k) for i in range(k)]
        coeffs = [sum(t[i - j] * coeffs[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
                  for i in range(k + 2)]
    return coeffs


def _ihara_bass(x: MultiGraph, weight) -> ExactSeries:
    """(1-u^2)^{m-n} det(I - A_w u + q_g u^2 I) for a (q_g+1)-regular graph.

    A_w[tail e, head e] += weight(e) over the oriented edges e.  With
    det(I - u A_w) = sum_k c_k u^k, the determinant is
    sum_k c_k u^k (1 + q_g u^2)^{n-k}.
    """
    q = x.q_g  # validates regularity
    if x.m < x.n:  # q_g <= 0: no cycles, the determinant is (1-u^2)^{n-m}
        return ExactSeries.one()
    a = [[0] * x.n for _ in range(x.n)]
    for e in range(2 * x.m):
        a[x.tail[e]][x.head[e]] += weight(e)
    shift = ExactSeries([1, 0, q])
    det = ExactSeries([])
    for k, c in enumerate(_det_one_minus_u(a)):
        det = det * shift + ExactSeries.monomial(k, c)
    return det * ExactSeries([1, 0, -1]) ** (x.m - x.n)


def ihara_det(x: MultiGraph) -> ExactSeries:
    """zeta_X(u)^{-1} = (1-u^2)^{m-n} det(I - Au + q u^2 I), exactly."""
    if x.q_g < 1:  # validates regularity
        raise InvalidConfigError("determinant formula needs regularity >= 2")
    return _ihara_bass(x, lambda e: 1)


def ihara_edge(x: MultiGraph) -> ExactSeries:
    """det(I - uT) for the non-backtracking edge matrix, exactly."""
    return ExactSeries(_det_one_minus_u(x.edge_matrix().tolist()))


# ---------------------------------------------------------------------------
# primitive-cycle enumeration
# ---------------------------------------------------------------------------

def primitive_cycles(x: MultiGraph, max_len: int) -> list[tuple[int, ...]]:
    """Canonical primitive closed NBT cycles, length <= max_len: the Lyndon
    words of oriented edges, by length, then lexicographically.

    Only prenecklaces are grown (Ruskey, Savage and Wang, J. Algorithms 13,
    1992): a prefix of n edges and period p extends by f >= path[n - p],
    keeping p where f equals that edge and taking p = n + 1 where f is
    larger, and is a Lyndon word where p = n.  A prefix grows only while it
    can close within max_len; each one shorter counts against CYCLE_ENUM_CAP.
    """
    if max_len < 1:
        return []
    k, succ = 2 * x.m, x.successors()
    pred = [[e for e in range(k) if f in succ[e]] for f in range(k)]
    by_len = [[] for _ in range(max_len + 1)]
    budget = [CYCLE_ENUM_CAP]
    path = []

    def extend(n: int, p: int, reach: list[int]) -> None:
        budget[0] -= 1
        if budget[0] <= 0:
            raise BudgetExceededError("primitive-cycle enumeration budget exceeded")
        e, low = path[-1], path[n - p]
        if p == n and reach[e] == 1:
            by_len[n].append(tuple(path))
        if n + 1 < max_len:
            for f in succ[e]:
                if f >= low and n + reach[f] <= max_len:
                    path.append(f)
                    extend(n + 1, p if f == low else n + 1, reach)
                    path.pop()
        elif n < max_len:  # the last edge: only f > low gives a Lyndon word
            by_len[max_len] += [(*path, f) for f in succ[e] if f > low and reach[f] == 1]

    for e0 in range(k):
        # reach[e]: the fewest NBT steps from e on to e0, 1 where e closes onto it
        reach, frontier = [max_len + 1] * k, {e0}
        for d in range(1, max_len + 1):
            frontier = {e for f in frontier for e in pred[f] if reach[e] > max_len}
            for e in frontier:
                reach[e] = d
        path.append(e0)
        try:
            extend(1, 1, reach)
        except RecursionError:  # a prefix deeper than Python's stack
            raise BudgetExceededError("primitive-cycle enumeration budget exceeded") from None
        path.pop()
    return [walk for walks in by_len for walk in walks]


def _cycle_voltages(vg: VoltageGraph, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The length and the voltage sum mod q_c of each primitive cycle of the
    base to max_len, in one array pass over their edges."""
    walks = primitive_cycles(vg.base, max_len)
    lens = np.fromiter(map(len, walks), np.int64, len(walks))
    edges = np.fromiter(itertools.chain.from_iterable(walks), np.int64, int(lens.sum()))
    sums = np.add.reduceat(np.array(vg.oriented_voltages)[edges],
                           np.cumsum(lens) - lens) if walks else lens
    return lens, sums % vg.q_c


# ---------------------------------------------------------------------------
# voltage graphs and coverings
# ---------------------------------------------------------------------------

@dataclass
class VoltageGraph:
    """Base graph with a Z/q_c voltage per undirected edge (on its listed
    orientation); the reversed orientation carries the negated voltage."""

    base: MultiGraph
    q_c: int
    voltages: list[int]

    def __post_init__(self):
        if self.q_c > MAX_COVER_ORDER:
            raise InvalidConfigError(f"cover group order {self.q_c} exceeds "
                                     f"{MAX_COVER_ORDER}")
        if 2 * self.base.m * self.q_c > MAX_COVER_EDGES:
            raise InvalidConfigError(
                f"cover of {2 * self.base.m * self.q_c} oriented edges exceeds "
                f"{MAX_COVER_EDGES}")
        if factorize(self.q_c) != {self.q_c: 1}:
            raise InvalidConfigError(f"cover group order {self.q_c} is not prime")
        if len(self.voltages) != self.base.m:
            raise InvalidConfigError("need one voltage per undirected edge")
        self.voltages = [v % self.q_c for v in self.voltages]
        # oriented edge 2i carries voltages[i], its reversal 2i+1 the negation
        self.oriented_voltages = [u for v in self.voltages
                                  for u in (v, (-v) % self.q_c)]


def build_cover(vg: VoltageGraph) -> MultiGraph:
    """Derived graph on (vertex, sheet) pairs; vertex v + n*a for sheet a."""
    n, q = vg.base.n, vg.q_c
    cover = MultiGraph(n * q, [(u + n * a, v + n * ((a + alpha) % q))
                               for (u, v), alpha in zip(vg.base.edges, vg.voltages)
                               for a in range(q)])
    if not cover.is_connected():
        warnings.warn("voltage cover is disconnected (voltages do not generate "
                      "the cover group on a cycle basis)", stacklevel=2)
    return cover


class GraphZetaSystem(ZetaSystem):
    """ZetaSystem of a voltage graph: norms q_g^{nu(p)}, Frobenius = voltage sum."""

    backend = "graph"

    def __init__(self, vg: VoltageGraph):
        super().__init__(group_order=vg.q_c)
        self.vg = vg
        self.q_g = vg.base.q_g
        if self.q_g < 2:  # a cycle of norm q_g^length must exceed 1
            raise InvalidConfigError(f"graph systems need q_g >= 2, got {self.q_g}")

    def _enumerate(self, X):
        if X == math.inf:
            raise BudgetExceededError("cycles of every length exceed the budget")
        # exactly: a float log admits cycles of norm q_g^length just above X
        max_len = 0
        while self.q_g ** (max_len + 1) <= X:
            max_len += 1
        lens, vol = _cycle_voltages(self.vg, max_len)
        dt = class_dtype(self.group_order)
        norms = np.array([float(self.q_g ** n) for n in range(max_len + 1)])
        return PrimeTable(norms[lens], vol.astype(dt),
                          np.where(vol == 0, 1, self.group_order).astype(dt),
                          np.arange(len(lens)))

    def count_coeff(self):
        return 2.0 * self.vg.base.m / (self.q_g - 1) + 1.0


def parse_graph_file(text: str) -> VoltageGraph:
    """Edge-list format: header 'n q_g q_c', then lines 'u v [voltage]'."""
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise InvalidConfigError("empty graph file")
    try:
        n, q_g, q_c = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise InvalidConfigError(f"bad graph header {lines[0]!r}") from exc
    edges, volts = [], []
    for ln in lines[1:]:
        try:
            ints = [int(tok) for tok in ln.split()]
        except ValueError:
            ints = []
        if len(ints) not in (2, 3):
            raise InvalidConfigError(f"bad edge line {ln!r}")
        edges.append((ints[0], ints[1]))
        volts.append(ints[2] if len(ints) == 3 else 0)
    g = MultiGraph(n, edges)
    if g.q_g != q_g:
        raise InvalidConfigError(f"header says q_g={q_g} but graph has q_g={g.q_g}")
    return VoltageGraph(g, q_c, volts)


# ---------------------------------------------------------------------------
# graph L-functions and the partial zeta series
# ---------------------------------------------------------------------------

def graph_L(vg: VoltageGraph, j: int) -> ExactSeries:
    """L(u, chi_j)^{-1}, exact over Q(zeta_{q_c}).

    The vertex-side twisted Ihara-Bass formula (Stark-Terras, Adv. Math. 121,
    1996): each oriented edge e adds chi_j(voltage(e)) to A_chi[tail e, head e].
    It equals det(I - u T_chi), T_chi[e -> f] = chi_j(voltage(f)) T[e -> f].
    A rational character (j = 0, or q_c = 2) has int entries; otherwise
    rational coefficients come back as ints, the rest as Cyclotomics over Z.
    """
    q = vg.q_c
    chi = [(-1) ** (j * a % q) if j % q == 0 or q == 2 else Cyclotomic.root_power(q, j * a)
           for a in range(q)]
    det = _ihara_bass(vg.base, lambda e: chi[vg.oriented_voltages[e]])
    return ExactSeries([c.rational() if isinstance(c, Cyclotomic) and c.is_rational() else c
                        for c in det.coeffs])


def graph_Ls(vg: VoltageGraph) -> list[ExactSeries]:
    """[L(u, chi_j)^{-1} for j < q_c] from graph_L at j = 0 and 1: every other
    L_j is sigma_j(L_1), zeta -> zeta^j on each coefficient."""
    l1 = graph_L(vg, 1)
    return [graph_L(vg, 0), l1] + [
        ExactSeries([c.conjugate(j) if isinstance(c, Cyclotomic) else c for c in l1.coeffs])
        for j in range(2, vg.q_c)]


def cover_zeta_inverse(vg: VoltageGraph, ls: list[ExactSeries] | None = None
                       ) -> ExactSeries:
    """zeta_Y(u)^{-1} as prod_j L(u, chi_j)^{-1} over ls = graph_Ls(vg), with
    int coefficients (rational() raises if the product failed to pair up)."""
    prod = ExactSeries.one()
    for lj in ls or graph_Ls(vg):
        prod = prod * lj
    return ExactSeries([c.rational() if isinstance(c, Cyclotomic) else c for c in prod.coeffs])


def g_series_fraction(vg: VoltageGraph) -> tuple[ExactSeries, ExactSeries]:
    """(numerator, denominator) of G(u) = zeta_X(u)^{q_c} / zeta_Y(u):
    numerator = zeta_Y(u)^{-1}, denominator = (zeta_X(u)^{-1})^{q_c}."""
    return cover_zeta_inverse(vg), ihara_edge(vg.base) ** vg.q_c


def partial_zeta_series(vg: VoltageGraph, l_ord: int,
                        g_fraction: tuple[ExactSeries, ExactSeries]
                        ) -> tuple[ExactSeries, ExactSeries]:
    """The u-domain partial zeta by two independent routes, truncated at u^l_ord.

    direct: Euler product over the c_nu primitive classes of length nu whose
    voltage sum has order q_c, (1 - u^nu)^{-c_nu} = sum_k C(c_nu+k-1, k) u^{nu k}.
    recursive: the unique F with F(0)=1 solving F(u)^{q_c} = F(u^{q_c}) * G(u),
    G = num / den from g_fraction (:func:`g_series_fraction`).  Contract:
    identical coefficients.
    """
    if not build_cover(vg).is_connected():
        raise InvalidConfigError("partial zeta needs a connected cover")
    q = vg.q_c

    lens, vol = _cycle_voltages(vg, l_ord)
    counts = np.bincount(lens[vol != 0], minlength=l_ord + 1).tolist()
    direct = ExactSeries.one(l_ord)
    for nu in np.flatnonzero(counts).tolist():
        binom = [math.comb(counts[nu] + k - 1, k) for k in range(l_ord // nu + 1)]
        direct = direct * ExactSeries(binom, l_ord).substitute_power(nu)

    num, den = g_fraction
    g_series = num.truncate(l_ord) / den.truncate(l_ord)
    f_coeffs = [1]
    for k in range(1, l_ord + 1):
        f_coeffs.append(0)
        lhs_k = (ExactSeries(f_coeffs, k) ** q).coeff(k)
        rhs_k = sum(f_coeffs[i] * g_series.coeff(k - q * i) for i in range(k // q + 1))
        # lhs coefficient is linear in f_k with slope q; rhs does not involve f_k
        f_k = Fraction(rhs_k - lhs_k, q)
        f_coeffs[k] = f_k.numerator if f_k.denominator == 1 else f_k
    recursive = ExactSeries(f_coeffs, l_ord)
    return direct, recursive


# ---------------------------------------------------------------------------
# singularities in the s-plane
# ---------------------------------------------------------------------------

def _poly_roots_exact_mults(poly: ExactSeries) -> list[tuple[complex, int]]:
    """Numeric roots with exact multiplicities via square-free decomposition."""
    out = []
    for factor, mult in squarefree_decomposition(poly.coeffs):
        fc = np.array([float(c) for c in factor])
        roots = np.roots(fc[::-1])
        f, df = ExactSeries(factor), ExactSeries([factor[k] * k for k in range(1, len(factor))])
        for r in roots:
            z = complex(r)
            for _ in range(60):  # Newton polish on the square-free factor
                fv, dv = f(z), df(z)
                if dv == 0:
                    break
                step = fv / dv
                z -= step
                if abs(step) < 1e-13 * max(1.0, abs(z)):
                    break
            out.append((z, mult))
    return out


def graph_singularities_in_s(poly: tuple[ExactSeries, ExactSeries], q_g: int,
                             T: float):
    """Map u-plane roots of G = num/den into the s-strip towers.

    Each root u0 with 1/q_g < |u0| < 1 yields s = (log(1/u0) + 2 pi i k)/log(q_g)
    for every k with 0 < Im s < T; orders are +mult (numerator) and -mult
    (denominator) after exact cancellation of common factors.
    """
    from .continuation import SingularityCatalog, SingularPoint

    if q_g < 2:
        raise InvalidConfigError(f"s = -log(u)/log(q_g) needs q_g >= 2, got {q_g}")
    num, den = poly
    common = poly_gcd(num.coeffs, den.coeffs)
    if len(common) > 1:
        nq, _ = poly_divmod(num.coeffs, common)
        dq, _ = poly_divmod(den.coeffs, common)
        num, den = ExactSeries(nq), ExactSeries(dq)

    logq = math.log(q_g)
    points = []
    for poly_part, sign in ((num, +1), (den, -1)):
        for u0, mult in _poly_roots_exact_mults(poly_part):
            if u0 == 0:
                continue
            re_s = -math.log(abs(u0)) / logq
            if not (1e-9 < re_s < 1.0 - 1e-9):
                continue
            theta = -cmath.phase(u0)
            k = 0
            while True:
                im_s = (theta + 2 * math.pi * k) / logq
                if im_s > T:
                    break
                if im_s > 1e-12:
                    points.append(SingularPoint(complex(re_s, im_s), sign * mult))
                k += 1
    # merge duplicates (conjugate root pairs can land on the same tower point)
    merged: dict[tuple[float, float], int] = {}
    for p in points:
        key = (round(p.location.real, 10), round(p.location.imag, 10))
        merged[key] = merged.get(key, 0) + p.order
    pts = [SingularPoint(complex(re, im), order)
           for (re, im), order in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))
           if order != 0]
    return SingularityCatalog(points=pts, complete_up_to=T)
