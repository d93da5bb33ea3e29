"""Exact series / polynomial arithmetic and cyclotomic scalars."""
import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialzeta.errors import InvalidConfigError
from partialzeta.series import (Cyclotomic, ExactSeries, poly_divmod, poly_gcd,
                                squarefree_decomposition)

from series_helpers import conjugate_map, derivative

small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(small_fracs, min_size=0, max_size=6)


class TestExactSeries:
    def test_polynomial_mul(self):
        p = ExactSeries([1, 1])  # 1 + u
        assert (p * p).coeffs == [Fraction(1), Fraction(2), Fraction(1)]

    def test_truncated_mul_drops_high_order(self):
        p = ExactSeries([1, 1], order=1)
        assert (p * p).coeffs == [Fraction(1), Fraction(2)]

    def test_inverse_geometric(self):
        # (1 - u)^{-1} = 1 + u + u^2 + ...
        inv = ExactSeries([1, -1], order=5).inverse()
        assert inv.coeffs == [Fraction(1)] * 6

    def test_inverse_requires_finite_order(self):
        with pytest.raises(InvalidConfigError):
            ExactSeries([1, -1]).inverse()

    def test_exact_poly_division(self):
        num = ExactSeries([1, 0, -1])  # 1 - u^2
        den = ExactSeries([1, -1])
        assert (num / den).coeffs == [Fraction(1), Fraction(1)]

    def test_poly_division_remainder_rejected(self):
        with pytest.raises(InvalidConfigError):
            ExactSeries([1, 0, 1]) / ExactSeries([1, -1])

    def test_substitute_power(self):
        p = ExactSeries([1, 2, 3])
        assert p.substitute_power(2).coeffs == [Fraction(1), Fraction(0),
                                                Fraction(2), Fraction(0),
                                                Fraction(3)]

    def test_pow_matches_repeated_mul(self):
        p = ExactSeries([1, 1, 1], order=8)
        assert p ** 3 == p * p * p

    def test_evaluate(self):
        p = ExactSeries([1, -1])
        assert p(Fraction(1, 3)) == Fraction(2, 3)
        assert abs(p(complex(0.5, 0.5)) - (0.5 - 0.5j)) < 1e-15

    def test_derivative(self):
        assert derivative(ExactSeries([5, 3, 2])).coeffs == [Fraction(3),
                                                             Fraction(4)]

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_mul_commutes(self, a, b):
        pa, pb = ExactSeries(a), ExactSeries(b)
        assert pa * pb == pb * pa

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, a, b, c):
        pa, pb, pc = ExactSeries(a), ExactSeries(b), ExactSeries(c)
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip(self, a):
        p = ExactSeries([Fraction(1)] + a, order=len(a) + 1)
        prod = p * p.inverse()
        assert prod.coeffs == [Fraction(1)]


def _all_fractions(c):
    if isinstance(c, Cyclotomic):
        return Cyclotomic(c.q, [Fraction(v) for v in c.vec])
    return Fraction(c)


def _assert_exact(series: ExactSeries):
    for c in series.coeffs:
        for v in (c.vec if isinstance(c, Cyclotomic) else [c]):
            assert isinstance(v, (int, Fraction)), series


@st.composite
def series_and_fraction_copy(draw, kind):
    """Truncated series with int, Fraction or Z[zeta_q] coefficients and a
    unit or non-unit constant term, and the same series on Fractions."""
    if kind == "int":
        scalars = st.integers(-9, 9)
    elif kind == "fraction":
        scalars = small_fracs
    else:
        scalars = st.lists(st.integers(-4, 4), min_size=kind - 1,
                           max_size=kind - 1).map(lambda v: Cyclotomic(kind, v))
    c0 = draw(st.sampled_from([1, -1, 2]))
    if kind not in ("int", "fraction"):
        c0 = Cyclotomic(kind, [c0])
    coeffs = [c0] + draw(st.lists(scalars, max_size=5))
    order = draw(st.integers(0, 6))
    return (ExactSeries(coeffs, order),
            ExactSeries([_all_fractions(c) for c in coeffs], order))


class TestIntCoefficients:
    """Arithmetic on int and Z[zeta_q] coefficients equals the same on
    Fractions, and never leaves the exact numbers."""

    @pytest.mark.parametrize("kind", ["int", "fraction", 3, 5])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ops_match_fraction_oracle(self, kind, data):
        a, fa = data.draw(series_and_fraction_copy(kind))
        b, fb = data.draw(series_and_fraction_copy(kind))
        n = data.draw(st.integers(-2, 3))
        k = data.draw(st.integers(1, 3))
        for got, want in ((a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb),
                          (a ** n, fa ** n), (a.inverse(), fa.inverse()),
                          (a.substitute_power(k), fa.substitute_power(k))):
            assert got == want
            _assert_exact(got)
        if kind == "int" and a.coeffs[0] in (1, -1):
            assert all(type(c) is int for c in a.inverse().coeffs)


class TestPolyHelpers:
    def test_divmod(self):
        q, r = poly_divmod([ -1, 0, 1], [1, 1])  # (u^2-1)/(u+1)
        assert q == [Fraction(-1), Fraction(1)]
        assert all(c == 0 for c in r)

    def test_gcd(self):
        # gcd((u-1)(u-2), (u-1)(u-3)) = u - 1 (monic)
        a = [2, -3, 1]
        b = [3, -4, 1]
        assert poly_gcd(a, b) == [Fraction(-1), Fraction(1)]

    def test_squarefree(self):
        # (u-1)^2 (u+2): coefficients of u^3 + 0u^2 - 3u + 2
        p = [2, -3, 0, 1]
        dec = squarefree_decomposition(p)
        assert ([Fraction(2), Fraction(1)], 1) in dec
        assert ([Fraction(-1), Fraction(1)], 2) in dec

    @given(polys, st.lists(small_fracs, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_divmod_reconstructs(self, a, b):
        if not any(c != 0 for c in b):
            return
        q, r = poly_divmod(a, b)
        recon = ExactSeries(b) * ExactSeries(q) + ExactSeries(r)
        assert recon == ExactSeries(a)


class TestCyclotomic:
    def test_root_power_reduction(self):
        # z^2 = -(1 + z) in Q(zeta_3)
        z2 = Cyclotomic.root_power(3, 2)
        assert z2.vec == [Fraction(-1), Fraction(-1)]

    def test_sum_of_all_roots_is_minus_one(self):
        for q in (3, 5, 7):
            total = Cyclotomic(q, [])
            for j in range(1, q):
                total = total + Cyclotomic.root_power(q, j)
            assert total == Cyclotomic(q, [-1])

    def test_mul_matches_complex(self):
        a = Cyclotomic(5, [1, 2, 0, -1])
        b = Cyclotomic(5, [0, 1, 1])
        prod = a * b
        assert abs(complex(prod) - complex(a) * complex(b)) < 1e-12

    def test_inverse(self):
        a = Cyclotomic(7, [2, -1, 0, 3])
        assert a * a.inverse() == Cyclotomic(7, [1])

    def test_conjugate_map_identity(self):
        a = Cyclotomic(5, [1, 2, 3, 4])
        assert conjugate_map(a, 1) == a

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_conjugate_matches_root_power_sum(self, data):
        # sigma_j by index arithmetic against sum_i c_i zeta^{ij} by products
        q = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
        a = Cyclotomic(q, data.draw(st.lists(st.integers(-9, 9), min_size=q - 1,
                                             max_size=q - 1)))
        j = data.draw(st.integers(1, q - 1))
        assert a.conjugate(j) == conjugate_map(a, j)
        assert all(type(c) is int for c in a.conjugate(j).vec)

    def test_conjugate_is_a_ring_map(self):
        a, b = Cyclotomic(7, [2, -1, 0, 3, 1, 5]), Cyclotomic(7, [0, 4, -2])
        for j in range(1, 7):
            assert (a * b).conjugate(j) == a.conjugate(j) * b.conjugate(j)
            assert (a + b).conjugate(j) == a.conjugate(j) + b.conjugate(j)

    def test_galois_norm_is_rational(self):
        a = Cyclotomic(5, [1, 1, 0, 2])
        norm = Cyclotomic(5, [1])
        for t in range(1, 5):
            norm = norm * conjugate_map(a, t)
        assert norm.is_rational()

    def test_zero_division_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Cyclotomic(3, []).inverse()
