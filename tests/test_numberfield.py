"""Abelian systems, closed-form g, argument-principle zero search."""
import cmath
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partialzeta import lfunctions, numberfield
from partialzeta.cli import main
from partialzeta.continuation import GEvaluator
from partialzeta.core import TruncationPolicy
from partialzeta.errors import InvalidConfigError, UnresolvedBoxError
from partialzeta.frobenius import log_L, log_Z
from partialzeta.lfunctions import (dirichlet_L, kronecker_character,
                                    prime_order_character)
from partialzeta.numberfield import (AbelianSystem, cyclic_system,
                                     find_zeros, g_closed_form, kronecker_system)
from partialzeta.primes import factorize, primes_up_to

from prime_data import table_rows
from zeta_oracles import (critical_line_zero_scan, reference_dirichlet_L,
                          reference_g, riemann_von_mangoldt, riemann_zeta)


class TestSystems:
    def test_d5_splitting(self):
        sys5 = kronecker_system(5)
        by_norm = {norm: order for norm, _, _, order
                   in table_rows(sys5.primes_up_to(12))}
        assert by_norm == {2: 2, 3: 2, 7: 2, 11: 1}
        assert 5 in sys5.ramified

    def test_d_minus_one_splitting(self):
        # first supplement: p splits in Q(i) iff p = 1 mod 4
        sysm1 = kronecker_system(-1)
        for norm, _, _, order in table_rows(sysm1.primes_up_to(50)):
            expected = 1 if int(norm) % 4 == 1 else 2
            assert order == expected

    def test_d1_rejected(self):
        with pytest.raises(InvalidConfigError):
            kronecker_system(1)

    def test_cubic_mod7(self):
        sys7 = cyclic_system(prime_order_character(7, 3, generator=3))
        split = [int(norm) for norm, _, _, order
                 in table_rows(sys7.primes_up_to(50)) if order == 1]
        assert all(p % 7 in (1, 6) for p in split)
        assert 13 in split  # 13 = 6 mod 7
        assert sys7.ramified == [7]

    def test_kronecker_consistency_with_cyclic(self):
        # the quadratic system is the q=2 case of the character construction
        sys5 = kronecker_system(5)
        chi = sys5.chi
        clone = AbelianSystem(chi)
        assert (table_rows(clone.primes_up_to(100))
                == table_rows(sys5.primes_up_to(100)))

    @pytest.mark.parametrize("system", [
        lambda: kronecker_system(5), lambda: kronecker_system(-1),
        lambda: kronecker_system(2),
        lambda: cyclic_system(prime_order_character(7, 3, generator=3)),
        lambda: cyclic_system(prime_order_character(43, 2))],
        ids=["d5", "d-1", "d2", "char7,3,3", "char43,2"])
    def test_lookup_matches_scalar_exponents(self, system):
        sys = system()
        rows = []  # oracle: the scalar per-prime classification loop
        for p in primes_up_to(10**5).tolist():
            j = sys.chi.exponent(p)
            if j is not None:
                rows.append((p, p, j, 1 if j == 0 else sys.group_order))
        assert table_rows(sys.primes_up_to(10**5)) == rows

    def test_nonprime_order_rejected(self):
        from partialzeta.lfunctions import DirichletCharacter

        chi4 = DirichletCharacter(5, 4, {1: 0, 2: 1, 3: 3, 4: 2})
        with pytest.raises(InvalidConfigError):
            AbelianSystem(chi4)


class TestGClosedForm:
    def test_overlap_with_truncated_ratio(self):
        # g = zeta_P^q / Z_P on Re s > 1, within combined tails
        sys5 = kronecker_system(5)
        g = g_closed_form(sys5)
        pol = TruncationPolicy(10**5)
        for s in (2.0, 1.6 + 3.0j, 2.5 - 7.0j):
            truncated = cmath.exp(2 * log_L(sys5, 0, s, pol)
                                  - log_Z(sys5, s, pol))
            assert abs(g(s) - truncated) < 1e-4

    def test_dual_path_agreement(self):
        # same ratio via independent grouping of the L-factors
        from partialzeta.lfunctions import (dirichlet_L, kronecker_character)

        sys5 = kronecker_system(5)
        g = g_closed_form(sys5)
        s = 2.0
        manual = (riemann_zeta(s) / dirichlet_L(s, kronecker_character(5))
                  * (1.0 - 5.0**-s))
        assert abs(g(s) - manual) < 1e-9

    def test_pole_order_at_one(self):
        # g ~ c (s-1)^{-(q-1)}: halving s-1 multiplies |g| by 2^{q-1} = 4
        sys7 = cyclic_system(prime_order_character(7, 3, generator=3))
        g = g_closed_form(sys7)
        h = 1e-4
        assert abs(g(1 + h / 2) / g(1 + h)) == pytest.approx(4, rel=1e-3)


class TestFarRight:
    """Where a^{-s} overflows for the least Hurwitz column a = 1/m, that is
    Re s > 709 / log m, m^{-s} zeta(s, a) was 0 * inf and g was nan; L is
    the Dirichlet series there."""

    @pytest.mark.parametrize("system", [
        lambda: kronecker_system(5),
        lambda: cyclic_system(prime_order_character(11, 5))],
        ids=["d5", "char11,5"])
    def test_g_is_one_far_right(self, system):
        g = g_closed_form(system())
        vals = g.fn(np.array([445.0, 445.0 + 3.0j, 1e4 + 2.0j, 1e8]))
        assert np.all(np.abs(vals - 1.0) <= 1e-15), vals
        assert g.fn(445.0) == vals[0]

    def test_L_on_both_sides_of_the_threshold(self):
        # 709 / log 5 = 440.5; L(s, chi_5) = 1 - 2^{-s} - 3^{-s} + ...
        chi = kronecker_character(5)
        s = np.array([440.0 + 1.0j, 441.0 + 1.0j, 60.0])
        below, above, plain = dirichlet_L(s, chi)
        assert below == reference_dirichlet_L(s[0], chi)  # the old bits
        assert abs(below - 1.0) <= 1e-15 and abs(above - 1.0) <= 1e-15
        assert plain == reference_dirichlet_L(60.0, chi)
        # modulus 11: 709 / log 11 = 295.7, and the series' second term
        chi11 = prime_order_character(11, 5)
        far = dirichlet_L(300.0 - 40.0j, chi11)
        assert abs(far - (1.0 + chi11.value(2) * 2.0 ** (-300 + 40j))) <= 1e-16


class TestGBatch:
    @pytest.mark.parametrize("system", [
        lambda: kronecker_system(5),
        lambda: cyclic_system(prime_order_character(7, 3, generator=3))],
        ids=["d5", "char7,3,3"])
    def test_batch_equals_pointwise(self, system):
        g = g_closed_form(system()).fn
        rng = np.random.default_rng(7)
        pts = (rng.uniform(0.01, 0.99, 40) + 1j * rng.uniform(20.0, 30.0, 40))
        batch = g(pts)
        assert np.array_equal(batch, np.array([g(complex(s)) for s in pts]))
        assert np.array_equal(g(pts.reshape(5, 8)), batch.reshape(5, 8))
        assert type(g(complex(pts[0]))) is complex


# (system, Hurwitz columns of g): a = r/m for the residues r prime to m, and
# a = 1 for zeta
_G_SYSTEMS = {
    "d5": (lambda: kronecker_system(5), 5),
    "char7,3,3": (lambda: cyclic_system(prime_order_character(7, 3, 3)), 7),
    "char11,5": (lambda: cyclic_system(prime_order_character(11, 5)), 11),
}


@st.composite
def _box_edges(draw):
    """Boundary samples of a few boxes in the strip, as the scan batches
    them: points on a box edge share a real part or a height."""
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        re0 = draw(st.floats(0.001, 0.9))
        im0 = draw(st.floats(0.05, 60.0))
        w, h = draw(st.floats(1e-3, 0.5)), draw(st.floats(1e-3, 0.5))
        corners = [complex(re0, im0), complex(re0 + w, im0),
                   complex(re0 + w, im0 + h), complex(re0, im0 + h)]
        pts += [a + (b - a) * k / 8 for a, b in
                zip(corners, corners[1:] + corners[:1]) for k in range(8)]
    return np.array(pts)


class TestGSharedHurwitz:
    """g takes zeta and every L(s, chi^j) from one Hurwitz call over the
    union of their columns, with the bits of one call per factor."""

    @pytest.mark.parametrize("name", sorted(_G_SYSTEMS))
    @given(pts=_box_edges())
    @settings(max_examples=20, deadline=None)
    def test_batch_pointwise_and_reference_agree(self, name, pts):
        sys_obj = _G_SYSTEMS[name][0]()
        g = g_closed_form(sys_obj).fn
        batch = g(pts)
        ref = reference_g(sys_obj, pts)
        assert np.array_equal(batch, ref)
        assert batch.tobytes() == ref.tobytes()
        pointwise = np.array([g(complex(s)) for s in pts[:8]])
        assert pointwise.tobytes() == batch[:8].tobytes()

    @pytest.mark.parametrize("name", sorted(_G_SYSTEMS))
    def test_one_hurwitz_call_per_g_call(self, name, monkeypatch):
        system, n_cols = _G_SYSTEMS[name]
        g = g_closed_form(system()).fn
        calls = []
        hurwitz = lfunctions.hurwitz_zeta

        def counted(s, a):
            calls.append(np.shape(a))
            return hurwitz(s, a)

        monkeypatch.setattr(lfunctions, "hurwitz_zeta", counted)
        g(np.array([0.5 + 14j, 0.3 + 2j, 0.9 + 30j]))
        g(0.5 + 14j)
        assert calls == [(n_cols,), (n_cols,)]



# d=5 catalog to T=28 as computed before g was batched (repr of location
# real and imaginary parts, order); the batched scan must reproduce it
_D5_CATALOG_T28 = [
    (0.5000000000000004, 6.648453344727717, -1),
    (0.500000000000002, 9.83144443288667, -1),
    (0.4999999999999998, 11.958845626083518, -1),
    (0.5000000000000067, 14.134725141734691, 1),
    (0.49999999999999994, 16.033821128384233, -1),
    (0.4999999999999997, 17.566994292325557, -1),
    (0.4999999999999985, 19.540732622784752, -1),
    (0.49999999999999534, 21.022039638771542, 1),
    (0.4999999999999988, 22.22740545445941, -1),
    (0.5000000000000004, 24.588466217408193, -1),
    (0.5000000000000241, 25.010857580145707, 1),
    (0.5000000000000008, 26.77609594800414, -1),
]


def _scan_work(monkeypatch, sys_obj, T):
    """find_zeros on g_closed_form(sys_obj) to T, and the sizes of its calls:
    of g ("g"), of each factor (by index) and of hurwitz_zeta ("hurwitz"),
    and the boxes of each `_windings` call ("windings", absent if none)."""
    ev = g_closed_form(sys_obj)
    sizes = {}
    hurwitz, windings = lfunctions.hurwitz_zeta, numberfield._windings

    def counted_hurwitz(s, a):
        sizes.setdefault("hurwitz", []).append(len(s))
        return hurwitz(s, a)

    def counted_windings(f, boxes):
        sizes.setdefault("windings", []).append(len(boxes))
        return windings(f, boxes)

    monkeypatch.setattr(lfunctions, "hurwitz_zeta", counted_hurwitz)
    monkeypatch.setattr(numberfield, "_windings", counted_windings)

    def counted(fn, key):
        def f(s):
            sizes.setdefault(key, []).append(np.size(s))
            return fn(s)
        return f

    ev.fn = counted(ev.fn, "g")
    ev.factors = [(counted(f, k), e, chi)
                  for k, (f, e, chi) in enumerate(ev.factors)]
    return find_zeros(ev, T), sizes


class TestFindZeros:
    def test_d5_catalog_pinned(self):
        cat = find_zeros(g_closed_form(kronecker_system(5)), 28.0)
        assert len(cat.points) == len(_D5_CATALOG_T28)
        for p, (re, im, order) in zip(cat.points, _D5_CATALOG_T28):
            assert p.order == order
            assert abs(p.location - complex(re, im)) < 1e-12

    def test_d5_scan_work(self, monkeypatch):
        # the level-batched factor scans: 1,585 g calls of at most 32 points
        # when each box and each bisection or Newton point was its own
        # call; then 104 factor calls for 9,938 points and 48 g calls of 5
        # points, one per Newton step; then 43 factor calls for 5,553 points
        # and 4 g calls, with inherited contours and lockstep Newton runs;
        # then 22 factor calls for 3,267 points and one g call, as the line
        # pass takes every zero from Hardy's Z and g's Newton runs start at
        # the factor roots; then 12 factor calls for those points, each
        # whole, and dirichlet_L cuts them into Hurwitz calls of at most
        # 256 points; now 19 factor calls for 187 points, as one zero count
        # per factor replaces the level-0 windings and Illinois steps on Z
        # replace Newton's five points per iterate
        cat, sizes = _scan_work(monkeypatch, kronecker_system(5), 28.0)
        assert "windings" not in sizes
        hurwitz_calls = sizes.pop("hurwitz")
        calls = [n for v in sizes.values() for n in v]
        assert len(calls) <= 20
        assert max(hurwitz_calls) <= 256
        assert sum(sizes[0]) + sum(sizes[1]) <= 224
        assert len(sizes["g"]) <= 2
        assert len(cat.points) == len(_D5_CATALOG_T28)
        for p, (re, im, order) in zip(cat.points, _D5_CATALOG_T28):
            assert p.order == order
            assert abs(p.location - complex(re, im)) < 1e-12

    def test_11_5_scan_work(self, monkeypatch):
        # factor and g points to T = 100: 36,243 with the level-0 windings,
        # 26,030 of them on the windings (ROADMAP Baseline); 4,803 with one
        # zero count per factor
        sys_obj = cyclic_system(prime_order_character(11, 5))
        cat, sizes = _scan_work(monkeypatch, sys_obj, 100.0)
        assert "windings" not in sizes
        sizes.pop("hurwitz")
        assert sum(n for v in sizes.values() for n in v) <= 5000
        assert len(cat.points) == 294

    def test_d_minus_59_scan_work(self, monkeypatch):
        # factor and g points to T = 100: 9,444 when L(s, chi_-59)'s count
        # exceeded its sign changes at theta steps of pi/4 and the factor
        # took level-0 windings (200 slabs), the per-slab line pass and
        # boxes; 2,771 as Z is resampled at pi/8 instead
        cat, sizes = _scan_work(monkeypatch, kronecker_system(-59), 100.0)
        assert "windings" not in sizes
        sizes.pop("hurwitz")
        assert sum(n for v in sizes.values() for n in v) <= 3325
        assert len(cat.points) == 122

    def test_400_box_level(self):
        # sin(pi w), w = -i(s - 1/2) - 1/4, vanishes at 1/2 + i(n + 1/4):
        # 100 simple zeros below T = 100, and levels of 200 and 400 boxes
        def f(s):
            return np.sin(np.pi * (-1j * (np.asarray(s) - 0.5) - 0.25))

        cat = find_zeros(f, 100.0)
        assert len(cat.points) == 100
        for n, p in enumerate(cat.points):
            assert p.order == 1
            assert abs(p.location - complex(0.5, n + 0.25)) < 1e-12

    @pytest.mark.parametrize("t", [0, 3], ids=["corner", "edge"])
    def test_zero_on_a_boundary_sample(self, t):
        # a zero of f on the first slab's corner or on a sample of its
        # bottom edge
        a, b = complex(1e-3, 0.05), complex(1.0 - 1e-3, 0.05)
        c = a + (b - a) * t / 8
        with pytest.raises(UnresolvedBoxError, match="passes through a zero"):
            find_zeros(lambda s: np.asarray(s) - c, 2.0)

    def test_d5_close_zero_pole_pair_found(self, monkeypatch):
        # pairs of a zeta zero and an L(s, chi_5) zero that cancel in g's
        # winding (0.065 and 0.042 apart): the scan of g itself missed both.
        # Exact locations from mpmath.zetazero(5) and mpmath.zetazero(26),
        # and mpmath.findroot on mpmath.dirichlet(s, chi_5)
        pairs = [(0.5 + 32.935061587739190j, 0.5 + 33.000456006870514j, 32.55),
                 (0.5 + 92.491899270558484j, 0.5 + 92.450243253774403j, 92.3)]
        g = g_closed_form(kronecker_system(5))
        for zeta_zero, l_zero, floor in pairs:
            monkeypatch.setattr(numberfield, "_IM_FLOOR", floor)
            cat = find_zeros(g, floor + 0.5)
            found = {(round(p.location.imag, 6), p.order) for p in cat.points}
            assert (round(zeta_zero.imag, 6), 1) in found
            assert (round(l_zero.imag, 6), -1) in found

    def test_newton_escape_splits_the_box(self, monkeypatch):
        # an iterate that leaves its box is not cataloged at the box center:
        # the box is split and its children refined again
        refine, calls = numberfield._newton_refine, []

        def escaping_once(f, starts):
            calls.append(starts)
            if len(calls) == 1:
                return [s0 + 1.0 for s0, _ in starts]
            return refine(f, starts)

        monkeypatch.setattr(numberfield, "_newton_refine", escaping_once)
        cat = find_zeros(riemann_zeta, 15.0)
        assert len(calls) > 1
        assert [p.order for p in cat.points] == [1]
        assert abs(cat.points[0].location - (0.5 + 14.134725141734694j)) < 1e-12

    def test_newton_escape_unresolved_below_1e_8(self, monkeypatch):
        monkeypatch.setattr(numberfield, "_newton_refine",
                            lambda f, starts: [s0 + 1.0 for s0, _ in starts])
        with pytest.raises(UnresolvedBoxError):
            find_zeros(riemann_zeta, 15.0)

    def test_newton_escape_stays_in_the_strip(self):
        # g's Newton run from the factor root rho1 steps 1e5 to the right,
        # since g'/g = 1/(s - rho1 - 1/4) + 1/(s - rho2) + c is -1e-5 there;
        # that iterate stops unevaluated, and rho1 keeps its factor root,
        # while rho2 is refined on g as usual
        rho1, rho2 = 0.5 + 3j, 0.5 + 5j
        c = 4.0 - 1.0 / (rho1 - rho2) - 1e-5
        seen = []

        def g(s):
            s = np.asarray(s)
            seen.extend(s.tolist())
            return (s - rho1 - 0.25) * (s - rho2) * np.exp(c * (s - rho1))

        def h(s):
            return (np.asarray(s) - rho1) * (np.asarray(s) - rho2)

        cat = find_zeros(GEvaluator(g, factors=[(h, 1, None)]), 6.0)
        assert seen and all(0 < z.real < 1 and abs(z.imag) <= 100
                            for z in seen)
        assert [p.order for p in cat.points] == [1, 1]
        for p, rho in zip(cat.points, (rho1, rho2)):
            assert abs(p.location - rho) < 1e-12
        # the escaped point is h's own root, bit for bit
        assert cat.points[0].location == find_zeros(h, 6.0).points[0].location

    def test_zeta_below_15(self):
        cat = find_zeros(riemann_zeta, 15.0)
        assert len(cat.points) == 1
        z = cat.points[0]
        assert z.order == 1
        assert abs(z.location - (0.5 + 14.134725j)) < 1e-4

    def test_critical_line_oracle_agreement(self):
        cat = find_zeros(riemann_zeta, 22.0)
        scan = critical_line_zero_scan(22.0)
        assert len(cat.points) == len(scan)
        for p, t in zip(cat.points, scan):
            assert abs(p.location.imag - t) < 1e-6

    def test_von_mangoldt_consistency(self):
        cat = find_zeros(riemann_zeta, 30.0)
        assert abs(len(cat.points) - riemann_von_mangoldt(30.0)) < 1.5

    def test_height_cap(self):
        with pytest.raises(InvalidConfigError):
            find_zeros(riemann_zeta, 200.0)

    def test_pole_negative_order(self):
        # 1/zeta has a pole (order -1) at each zeta zero
        cat = find_zeros(lambda s: 1.0 / riemann_zeta(s), 15.0)
        assert len(cat.points) == 1
        assert cat.points[0].order == -1

    def test_conjugate_character_symmetry(self):
        from partialzeta.lfunctions import dirichlet_L

        chi = prime_order_character(7, 3, generator=3)
        cat1 = find_zeros(lambda s: dirichlet_L(s, chi), 12.0)
        cat2 = find_zeros(lambda s: dirichlet_L(s, chi.power(2)), 12.0)
        # chi-bar zeros in the upper strip mirror chi zeros of the lower
        # strip; both catalogs are plain zero lists of the same completed pair
        assert len(cat1.points) + len(cat2.points) > 0
        for p in cat1.points:
            assert 0 < p.location.real < 1


def _box_only(ev):
    """ev with its factors' characters dropped: every factor takes the box
    scan alone."""
    ev.factors = [(f, e, None) for f, e, _ in ev.factors]
    return ev


def _system(spec):
    if isinstance(spec, int):
        return kronecker_system(spec)
    return cyclic_system(prime_order_character(*spec))


def _recorded_counts(monkeypatch):
    """The (step, count, heights, Z) of every `_line_count` call."""
    counts, line_count = [], numberfield._line_count

    def recorded(f, chi, T, step=numberfield._THETA_STEP):
        out = line_count(f, chi, T, step)
        counts.append((step, *out[:3]))
        return out

    monkeypatch.setattr(numberfield, "_line_count", recorded)
    return counts


class TestLineScan:
    """Zeros of a factor L(s, chi) come from sign changes of Hardy's Z on
    Re s = 1/2 where they match Backlund's count of the factor's zeros; a
    count the signs miss resamples Z with theta's step halved, up to
    _THETA_HALVINGS times, and a factor whose count the finest samples
    still miss takes the box scan alone."""

    _STEPS = [numberfield._THETA_STEP / 2 ** k
              for k in range(numberfield._THETA_HALVINGS + 1)]

    def test_off_line_pair_takes_the_box_scan(self, monkeypatch):
        # L(s, chi_5) (s - rho)(s - 1 + conj rho), rho = 0.7 + 20i: on the
        # line the new factor is -(0.04 + (t - 20)^2), so Z stays real and
        # gains no sign change, while the slab's winding grows by 2
        chi, rho = kronecker_character(5), 0.7 + 20j

        def f(s):
            s = np.asarray(s)
            return dirichlet_L(s, chi) * (s - rho) * (s - 1 + rho.conjugate())

        t = np.linspace(19.55, 20.05, 201)
        theta = lfunctions.hardy_theta(t, chi)
        Z, Z_L = (np.exp(1j * theta) * h(0.5 + 1j * t)
                  for h in (f, lambda s: dirichlet_L(s, chi)))
        assert np.all(np.abs(Z.imag) <= 1e-12 * np.maximum(1, np.abs(Z)))
        assert np.array_equal(np.sign(Z.real), -np.sign(Z_L.real))

        levels, windings = [], numberfield._windings

        def recorded(f, boxes):
            levels.append((boxes, windings(f, boxes)))
            return levels[-1][1]

        counts = _recorded_counts(monkeypatch)
        monkeypatch.setattr(numberfield, "_windings", recorded)
        cat = find_zeros(GEvaluator(f, factors=[(f, 1, chi)]), 30.0)
        # the count sees both zeros, the line neither at any step: the
        # factor falls back to the box scan, whose level-0 windings add up
        # to the count, 2 more than the line zeros in the slab at Im s = 20
        assert [step for step, *_ in counts] == self._STEPS
        for _, n, t, Z in counts:
            assert abs(n - (np.sum(Z[:-1] * Z[1:] < 0) + 2)) < 1e-6
        (slabs, slab_windings), *_ = levels
        assert slabs[0][2] == numberfield._IM_FLOOR and slabs[-1][3] == 30.0
        assert sum(slab_windings) == round(counts[0][1])
        on_line = find_zeros(lambda s: dirichlet_L(s, chi), 30.0).points
        (w20, lo, hi), = [(w, im0, im1) for (_, _, im0, im1), w in
                          zip(slabs, slab_windings) if im0 < 20 < im1]
        assert w20 == 2 + sum(lo < p.location.imag < hi for p in on_line)
        off_line = [p for p in cat.points if abs(p.location.real - 0.5) > 0.1]
        assert [p.order for p in cat.points] == [1] * (len(on_line) + 2)
        for p, z in zip(off_line, (0.3 + 20j, 0.7 + 20j)):
            assert abs(p.location - z) < 1e-12
        rest = [p for p in cat.points if p not in off_line]
        for p, q in zip(rest, on_line):
            assert abs(p.location - q.location) < 1e-12

    # 137 to T = 15 and -142 to T = 30: a factor whose signs miss two line
    # zeros at theta steps of pi/4, which resampling at pi/8 finds
    _CATALOGS = [
        (5, 30.0), (-3, 30.0), (13, 30.0), ((7, 3, 3), 30.0), ((11, 5), 30.0),
        (5, 100.0), ((7, 3, 3), 100.0), ((11, 5), 100.0), (137, 15.0),
        (-142, 30.0)]

    @pytest.mark.parametrize("spec,T", _CATALOGS, ids=str)
    def test_line_first_equals_box_only(self, monkeypatch, spec, T):
        windings, boxes = numberfield._windings, []

        def recorded(f, level):
            boxes.extend(level)
            return windings(f, level)

        monkeypatch.setattr(numberfield, "_windings", recorded)
        line = find_zeros(g_closed_form(_system(spec)), T).points
        monkeypatch.undo()
        box = find_zeros(_box_only(g_closed_form(_system(spec))), T).points
        assert [p.order for p in line] == [p.order for p in box]
        for p, q in zip(line, box):
            assert abs(p.location - q.location) < 1e-12
        # the line pass resolves every factor here: were one to fall back,
        # the box scan alone would find its zeros, at its own cost
        assert boxes == [], "a factor fell back to the box scan"

    @pytest.mark.parametrize("spec,T", _CATALOGS, ids=str)
    def test_count_is_an_integer(self, spec, T):
        ev = g_closed_form(_system(spec))
        points = np.array([p.location for p in find_zeros(ev, T).points])
        for f, _, chi in ev.factors:
            n = numberfield._line_count(f, chi, T)[0]
            assert abs(n - round(n)) < 1e-6
            assert round(n) == np.sum(np.abs(f(points)) < 1e-9)

    def test_close_line_pair_falls_back(self, monkeypatch):
        # L(s, chi_5) (s - rho)(s - rho - 1e-3 i), rho = 1/2 + 15.3i: two line
        # zeros between one pair of Z samples, which Z's sign cannot tell
        # from none
        chi, rho = kronecker_character(5), 0.5 + 15.3j

        def f(s):
            s = np.asarray(s)
            return dirichlet_L(s, chi) * (s - rho) * (s - rho - 1e-3j)

        ev = GEvaluator(f, factors=[(f, 1, chi)])
        counts = _recorded_counts(monkeypatch)
        cat = find_zeros(ev, 30.0).points
        # one count per step, none of whose samples split the pair
        assert [step for step, *_ in counts] == self._STEPS
        for _, n, t, Z in counts:
            assert abs(n - (np.sum(Z[:-1] * Z[1:] < 0) + 2)) < 1e-6
        monkeypatch.setattr(numberfield, "_line_roots", lambda f, chi, T: None)
        box = find_zeros(ev, 30.0).points
        assert [(p.location, p.order) for p in cat] == [
            (p.location, p.order) for p in box]

    @settings(max_examples=30, deadline=None)
    @given(p=st.sampled_from(primes_up_to(59).tolist()[1:]),
           data=st.data(), T=st.floats(0.5, 15.0))
    def test_single_factor_equals_box_only(self, p, data, T):
        # one factor L(s, chi^j), chi of prime order mod a prime below 60:
        # the line-first catalog, resampled where needed, equals the box
        # scan's, and the count is an integer equal to its length
        q = data.draw(st.sampled_from(sorted(factorize(p - 1))), label="q")
        j = data.draw(st.integers(1, q - 1), label="j")
        chi = prime_order_character(p, q).power(j)

        def f(s):
            return dirichlet_L(s, chi)

        line = find_zeros(GEvaluator(f, factors=[(f, 1, chi)]), T).points
        box = find_zeros(f, T).points
        assert [x.order for x in line] == [x.order for x in box]
        for x, y in zip(line, box):
            assert abs(x.location - y.location) < 1e-12
        n = numberfield._line_count(f, chi, T)[0]
        assert abs(n - round(n)) < 1e-6 and round(n) == len(box)

    @pytest.mark.parametrize("argv", [
        ["zeros", "--d", "5", "--height", "0.05"],
        ["zeros", "--d", "5", "--height", "0.06"],
        ["zeros", "--backend", "cyclic", "--char", "7,3,3", "--height", "0.05"],
        ["zeros", "--backend", "cyclic", "--char", "7,3,3", "--height",
         "0.0500001"]], ids=["d5-0.05", "d5-0.06", "char7,3,3-0.05",
                             "char7,3,3-0.0500001"])
    def test_heights_at_the_floor(self, capsys, argv):
        # no slab below _IM_FLOOR, and a count of 0 just above it: the
        # header alone, as the level-0 windings printed it
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == "af967adc90e66242c0951a2cd94af537a82b75ade65152c7c9a4c4cd2caa5f49"


def _rational(zeros, poles):
    """prod (s - z) / prod (s - p) over the given points, broadcast over an
    array of s."""
    def f(s):
        s = np.asarray(s, dtype=complex)
        out = np.ones_like(s)
        for z in zeros:
            out = out * (s - z)
        for p in poles:
            out = out / (s - p)
        return out
    return f


class TestLockstepNewton:
    """Newton from many starts at once gives each start's root of a run from
    that start alone, bit for bit."""

    @given(picks=st.lists(st.tuples(st.integers(0, 2),
                                    st.floats(-4e-3, 4e-3),
                                    st.floats(-4e-3, 4e-3)),
                          min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_d5_g(self, picks):
        # g's poles at the L(s, chi_5) zeros 6.648 and 9.831, and its zero
        # at the zeta zero 14.135
        targets = [(0.5 + 6.648453344727717j, -1),
                   (0.5 + 9.83144443288667j, -1),
                   (0.5 + 14.134725141734691j, 1)]
        g = g_closed_form(kronecker_system(5)).fn
        starts = [(targets[i][0] + complex(dx, dy), targets[i][1])
                  for i, dx, dy in picks]
        roots = numberfield._newton_refine(g, starts)
        assert roots == [numberfield._newton_refine(g, [st])[0]
                         for st in starts]
        for (i, _, _), root in zip(picks, roots):
            assert abs(root - targets[i][0]) < 1e-12

    @given(picks=st.lists(st.tuples(st.integers(0, 2),
                                    st.floats(-0.05, 0.05),
                                    st.floats(-0.05, 0.05)),
                          min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rational_with_a_pole(self, picks):
        # a simple zero, a double zero and a simple pole
        targets = [(0.3 + 2.0j, 1), (0.6 + 2.5j, 2), (0.45 + 1.5j, -1)]
        f = _rational([0.3 + 2.0j, 0.6 + 2.5j, 0.6 + 2.5j], [0.45 + 1.5j])
        starts = [(targets[i][0] + complex(dx, dy), targets[i][1])
                  for i, dx, dy in picks]
        roots = numberfield._newton_refine(f, starts)
        alone = [numberfield._newton_refine(f, [st])[0] for st in starts]
        # bytes: a start on the pole gives nan, which equals nothing
        assert np.array(roots).tobytes() == np.array(alone).tobytes()
        assert numberfield._newton_refine(f, []) == []


@st.composite
def _boxes_near_cuts(draw):
    """A box, and up to three zeros and poles in it at least a tenth of its
    size apart; one may lie within 1e-4 of the box's vertical or horizontal
    cut line."""
    re0, im0 = draw(st.floats(0.0, 0.5)), draw(st.floats(0.05, 50.0))
    w = draw(st.floats(1e-3, 0.5))
    h = w * draw(st.floats(0.5, 2.0))
    pts = [complex(re0 + w * draw(st.floats(0.1, 0.9)),
                   im0 + h * draw(st.floats(0.1, 0.9)))
           for _ in range(draw(st.integers(1, 3)))]
    near = draw(st.sampled_from(["", "re", "im"]))
    off = draw(st.floats(1e-7, 1e-4)) * draw(st.sampled_from([-1, 1]))
    if near == "re":
        pts[0] = complex(re0 + 0.5137 * w + off, pts[0].imag)
    elif near == "im":
        pts[0] = complex(pts[0].real, im0 + 0.4873 * h + off)
    size = max(w, h)
    assume(all(abs(a - b) >= 0.1 * size
               for i, a in enumerate(pts) for b in pts[i + 1:]))
    # no point on an edge or cut of the box, its children or grandchildren
    level, xs, ys = [(re0, re0 + w, im0, im0 + h)], [re0, re0 + w], [im0, im0 + h]
    for _ in range(2):
        children = []
        for b0, b1, c0, c1 in level:
            bm, cm = b0 + 0.5137 * (b1 - b0), c0 + 0.4873 * (c1 - c0)
            xs.append(bm)
            ys.append(cm)
            children += [(b0, bm, c0, cm), (bm, b1, c0, cm),
                         (b0, bm, cm, c1), (bm, b1, cm, c1)]
        level = children
    assume(all(min(abs(p.real - x) for x in xs) >= 1e-8 * size
               and min(abs(p.imag - y) for y in ys) >= 1e-8 * size
               for p in pts))
    signs = [draw(st.sampled_from([1, -1])) for _ in pts]
    return (re0, re0 + w, im0, im0 + h), pts, signs


class TestSplit:
    """The children of `_split` tile their parent: each zero and pole lies in
    exactly one of them, and each child's fresh outline winds by the count
    of zeros less poles inside it."""

    @given(case=_boxes_near_cuts())
    @settings(max_examples=60, deadline=None)
    def test_children_windings_equal_true_counts(self, case):
        box, pts, signs = case
        f = _rational([p for p, e in zip(pts, signs) if e > 0],
                      [p for p, e in zip(pts, signs) if e < 0])

        def inside(p, b):
            re0, re1, im0, im1 = b
            return re0 < p.real < re1 and im0 < p.imag < im1

        level = [box]
        assert numberfield._windings(f, level) == [sum(signs)]
        for _ in range(2):  # children, then grandchildren
            level = numberfield._split(level)
            assert all(sum(inside(p, b) for b in level) == 1 for p in pts)
            assert numberfield._windings(f, level) == [
                sum(e for p, e in zip(pts, signs) if inside(p, b))
                for b in level]
