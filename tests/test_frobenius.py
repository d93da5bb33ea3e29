"""Cyclic-group characters, truncated L and Z, factorization identities."""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from partialzeta.core import ExplicitSystem, TruncationPolicy
from partialzeta.errors import InvalidConfigError
from partialzeta.frobenius import (Character, CyclicGroup, _chi_on_classes,
                                   log_Z, subgroup_character_indices,
                                   truncated_L, truncated_Z,
                                   zp_factorization_residual)
from partialzeta.numberfield import kronecker_system
from partialzeta.series import ExactSeries

from prime_data import PrimeDatum, explicit_system


class TestCharacterValues:
    def test_trivial(self):
        chi = Character(CyclicGroup(5), 0)
        assert np.all(_chi_on_classes(chi, np.arange(5)) == 1)

    def test_sign_character(self):
        chi = Character(CyclicGroup(2), 1)
        assert _chi_on_classes(chi, np.array([1]))[0] == pytest.approx(-1)

    def test_order3(self):
        chi = Character(CyclicGroup(3), 1)
        assert (_chi_on_classes(chi, np.array([2]))[0]
                == pytest.approx(cmath.exp(4j * cmath.pi / 3)))

    def test_group_order_validated(self):
        with pytest.raises(InvalidConfigError):
            CyclicGroup(1)

    def test_divisors(self):
        assert CyclicGroup(6).divisors() == [1, 2, 3, 6]


class TestPerPrimeIdentity:
    """prod_{j mod m}(1 - e^{2 pi i j k/m} x) = (1 - x^n)^{m/n}, n = ord(k)."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_polynomial_identity(self, m):
        for k in range(m):
            n = m // math.gcd(k, m)
            # build both sides as exact-degree polynomial samples and compare
            xs = np.linspace(0.1, 0.9, m + 2)
            for x in xs:
                lhs = 1.0 + 0.0j
                for j in range(m):
                    lhs *= 1.0 - cmath.exp(2j * cmath.pi * j * k / m) * x
                rhs = (1.0 - x**n) ** (m // n)
                assert abs(lhs - rhs) < 1e-12

    def test_exact_expansion_order2(self):
        # (1-x)(1+x) = 1 - x^2 exactly
        p = ExactSeries([1, -1]) * ExactSeries([1, 1])
        assert p == ExactSeries([1, 0, -1])


class TestTruncatedL:
    def test_trivial_character_is_zeta_P(self):
        from partialzeta.core import truncated_zeta_P

        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**3)
        chi0 = Character(CyclicGroup(2), 0)
        lv, _ = truncated_L(sys5, chi0, 2.0, pol)
        zv, _ = truncated_zeta_P(sys5, 2.0, pol)
        assert lv == zv

    def test_single_prime_sign_character(self):
        sys = explicit_system([PrimeDatum(norm=2, id=0, frob_class=1,
                                         frob_order=2)], group_order=2)
        chi = Character(CyclicGroup(2), 1)
        v, _ = truncated_L(sys, chi, 1.0, TruncationPolicy(4))
        assert v == pytest.approx(2 / 3)

    def test_L_against_dirichlet_series_oracle(self):
        # L(2, chi_5) by direct character-sum Dirichlet series
        sys5 = kronecker_system(5)
        chi = Character(CyclicGroup(2), 1)
        v, _ = truncated_L(sys5, chi, 2.0, TruncationPolicy(10**4))
        table = {1: 1, 2: -1, 3: -1, 4: 1, 0: 0}
        oracle = sum(table[n % 5] / n**2 for n in range(1, 200001))
        assert abs(v - oracle) < 1e-6

    def test_conjugation_invariance(self):
        sys7 = _cubic_system()
        pol = TruncationPolicy(10**3)
        g = CyclicGroup(3)
        v1, _ = truncated_L(sys7, Character(g, 1), 1.7, pol)
        v2, _ = truncated_L(sys7, Character(g, 2), 1.7, pol)
        assert abs(v1 - v2.conjugate()) < 1e-13


def _cubic_system():
    from partialzeta.lfunctions import prime_order_character
    from partialzeta.numberfield import cyclic_system

    return cyclic_system(prime_order_character(7, 3, generator=3))


class TestTruncatedZ:
    def test_order3_single_prime(self):
        # frozen oracle: prod_j (1 - w^j/2)^{-1} = (1 - 2^{-3})^{-1} = 8/7
        sys = explicit_system([PrimeDatum(norm=2, id=0, frob_class=1,
                                         frob_order=3)], group_order=3)
        v, _ = truncated_Z(sys, 1.0, TruncationPolicy(4))
        assert abs(v - 8 / 7) < 1e-14

    def test_brute_complex_product_oracle(self):
        w = cmath.exp(2j * cmath.pi / 3)
        brute = 1.0
        for j in range(3):
            brute *= 1.0 / (1.0 - w**j / 2.0)
        assert abs(brute - 8 / 7) < 1e-14

    def test_order2_local_factor(self):
        # order-2 prime: Z local factor is (1 - norm^{-2s})^{-1}
        sys = explicit_system([PrimeDatum(norm=3, id=0, frob_class=1,
                                         frob_order=2)], group_order=2)
        v, _ = truncated_Z(sys, 1.5, TruncationPolicy(4))
        assert abs(v - 1.0 / (1.0 - 3.0**-3)) < 1e-14

    def test_Z_real_for_real_s(self):
        sys7 = _cubic_system()
        v, _ = truncated_Z(sys7, 1.8, TruncationPolicy(10**3))
        assert abs(v.imag) < 1e-12 * abs(v.real)


class TestFactorization:
    def test_residual_d5(self):
        sys5 = kronecker_system(5)
        assert zp_factorization_residual(sys5, 1.4 + 2.3j, 10**4) <= 1e-10

    def test_residual_cubic(self):
        assert zp_factorization_residual(_cubic_system(), 2.0 - 1.0j,
                                         10**4) <= 1e-10

    def test_order2_explicit_decomposition(self):
        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**3)
        from partialzeta.core import log_zeta_Pn

        s = 1.9
        lhs = log_Z(sys5, s, pol)
        rhs = 2 * log_zeta_Pn(sys5, 1, s, pol) + log_zeta_Pn(sys5, 2, 2 * s, pol)
        assert abs(lhs - rhs) < 1e-12

    def test_empty_system_residual_zero(self):
        sys = ExplicitSystem([], [], [], group_order=2)
        assert zp_factorization_residual(sys, 2.0, 10) == 0.0


class TestSubgroupIndices:
    def test_z6_subgroups(self):
        assert subgroup_character_indices(6, 2) == [0, 3]
        assert subgroup_character_indices(6, 3) == [0, 2, 4]

    def test_full_group(self):
        assert subgroup_character_indices(6, 6) == [0, 1, 2, 3, 4, 5]

    def test_nondivisor_rejected(self):
        with pytest.raises(InvalidConfigError):
            subgroup_character_indices(6, 4)
