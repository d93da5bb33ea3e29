"""Abelian systems, closed-form g, argument-principle zero search."""
import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialzeta import lfunctions
from partialzeta.continuation import _SAMPLES_PER_CALL
from partialzeta.core import TruncationPolicy
from partialzeta.errors import InvalidConfigError, UnresolvedBoxError
from partialzeta.frobenius import log_Z
from partialzeta.lfunctions import (dirichlet_L, kronecker_character,
                                    prime_order_character)
from partialzeta.numberfield import (AbelianSystem, cyclic_system,
                                     find_zeros, g_closed_form, kronecker_system)
from partialzeta.primes import primes_up_to

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
        from partialzeta.core import log_zeta_P

        sys5 = kronecker_system(5)
        g = g_closed_form(sys5)
        pol = TruncationPolicy(10**5)
        for s in (2.0, 1.6 + 3.0j, 2.5 - 7.0j):
            truncated = cmath.exp(2 * log_zeta_P(sys5, s, pol)
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


class TestFindZeros:
    def test_d5_catalog_pinned(self):
        cat = find_zeros(g_closed_form(kronecker_system(5)), 28.0)
        assert len(cat.points) == len(_D5_CATALOG_T28)
        for p, (re, im, order) in zip(cat.points, _D5_CATALOG_T28):
            assert p.order == order
            assert abs(p.location - complex(re, im)) < 1e-12

    def test_d5_scan_work(self):
        # the level-batched factor scans: 1,585 g calls of at most 32 points
        # when each box and each bisection or Newton point was its own
        # call; now 104 factor calls, and g only for the Newton steps
        ev = g_closed_form(kronecker_system(5))
        sizes = {}

        def counted(fn, key):
            def f(s):
                sizes.setdefault(key, []).append(np.size(s))
                return fn(s)
            return f

        ev.fn = counted(ev.fn, "g")
        ev.factors = [(counted(f, k), e) for k, (f, e) in enumerate(ev.factors)]
        cat = find_zeros(ev, 28.0)
        calls = [n for v in sizes.values() for n in v]
        assert len(calls) <= 350
        assert max(calls) <= _SAMPLES_PER_CALL
        assert set(sizes["g"]) == {5}
        assert len(cat.points) == len(_D5_CATALOG_T28)
        for p, (re, im, order) in zip(cat.points, _D5_CATALOG_T28):
            assert p.order == order
            assert abs(p.location - complex(re, im)) < 1e-12

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

    def test_d5_close_zero_pole_pair_found(self):
        # pairs of a zeta zero and an L(s, chi_5) zero that cancel in g's
        # winding (0.065 and 0.042 apart): the scan of g itself missed both.
        # Exact locations from mpmath.zetazero(5) and mpmath.zetazero(26),
        # and mpmath.findroot on mpmath.dirichlet(s, chi_5)
        pairs = [(0.5 + 32.935061587739190j, 0.5 + 33.000456006870514j, 32.55),
                 (0.5 + 92.491899270558484j, 0.5 + 92.450243253774403j, 92.3)]
        g = g_closed_form(kronecker_system(5))
        for zeta_zero, l_zero, floor in pairs:
            cat = find_zeros(g, floor + 0.5, im_floor=floor)
            found = {(round(p.location.imag, 6), p.order) for p in cat.points}
            assert (round(zeta_zero.imag, 6), 1) in found
            assert (round(l_zero.imag, 6), -1) in found

    def test_newton_escape_splits_the_box(self, monkeypatch):
        # an iterate that leaves its box is not cataloged at the box center:
        # the box is split and its children refined again
        from partialzeta import numberfield

        refine, calls = numberfield._newton_refine, []

        def escaping_once(f, s0, mult):
            calls.append(s0)
            return s0 + 1.0 if len(calls) == 1 else refine(f, s0, mult)

        monkeypatch.setattr(numberfield, "_newton_refine", escaping_once)
        cat = find_zeros(riemann_zeta, 15.0)
        assert len(calls) > 1
        assert [p.order for p in cat.points] == [1]
        assert abs(cat.points[0].location - (0.5 + 14.134725141734694j)) < 1e-12

    def test_newton_escape_unresolved_below_1e_8(self, monkeypatch):
        from partialzeta import numberfield

        monkeypatch.setattr(numberfield, "_newton_refine",
                            lambda f, s0, mult: s0 + 1.0)
        with pytest.raises(UnresolvedBoxError):
            find_zeros(riemann_zeta, 15.0)

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
