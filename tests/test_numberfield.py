"""Abelian systems, closed-form g, argument-principle zero search."""
import cmath

import numpy as np
import pytest

from partialzeta.continuation import SingularityCatalog, SingularPoint
from partialzeta.core import PRIME_DTYPE, TruncationPolicy
from partialzeta.errors import InvalidConfigError, SingularityProximityError
from partialzeta.frobenius import log_Z
from partialzeta.lfunctions import prime_order_character, riemann_zeta
from partialzeta.numberfield import (AbelianSystem, critical_line_zero_scan,
                                     cyclic_system, find_zeros, g_closed_form,
                                     kronecker_system, riemann_von_mangoldt)
from partialzeta.primes import primes_up_to


class TestSystems:
    def test_d5_splitting(self):
        sys5 = kronecker_system(5)
        by_norm = {p["norm"]: p["frob_order"] for p in sys5.primes_up_to(12)}
        assert by_norm == {2: 2, 3: 2, 7: 2, 11: 1}
        assert 5 in sys5.ramified

    def test_d_minus_one_splitting(self):
        # first supplement: p splits in Q(i) iff p = 1 mod 4
        sysm1 = kronecker_system(-1)
        for p in sysm1.primes_up_to(50):
            expected = 1 if int(p["norm"]) % 4 == 1 else 2
            assert p["frob_order"] == expected

    def test_d1_rejected(self):
        with pytest.raises(InvalidConfigError):
            kronecker_system(1)

    def test_cubic_mod7(self):
        sys7 = cyclic_system(prime_order_character(7, 3, generator=3))
        split = [int(p["norm"]) for p in sys7.primes_up_to(50)
                 if p["frob_order"] == 1]
        assert all(p % 7 in (1, 6) for p in split)
        assert 13 in split  # 13 = 6 mod 7
        assert sys7.ramified == [7]

    def test_kronecker_consistency_with_cyclic(self):
        # the quadratic system is the q=2 case of the character construction
        sys5 = kronecker_system(5)
        chi = sys5.chi
        clone = AbelianSystem(chi)
        assert np.array_equal(clone.primes_up_to(100), sys5.primes_up_to(100))

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
        expected = np.array(rows, dtype=PRIME_DTYPE)
        assert np.array_equal(sys.primes_up_to(10**5), expected)

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

    def test_pole_order_metadata(self):
        sys7 = cyclic_system(prime_order_character(7, 3, generator=3))
        assert g_closed_form(sys7).pole_order_at_one == 2

    def test_proximity_check_with_catalog(self):
        sys5 = kronecker_system(5)
        cat = SingularityCatalog([SingularPoint(0.5 + 14.134725j, 1)], 20.0)
        g = g_closed_form(sys5, catalog=cat)
        with pytest.raises(SingularityProximityError):
            g(0.5 + 14.134725j)


class TestFindZeros:
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
