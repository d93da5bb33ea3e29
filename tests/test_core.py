"""Prime tables, truncated products and tail bounds."""
import bisect
import cmath
import math
import sys

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from partialzeta import core, primes
from partialzeta.core import (PrimeTable, TruncationPolicy, ZetaSystem,
                              exp_of_log)
from partialzeta.errors import (BudgetExceededError, DomainError,
                                InvalidConfigError, SingularLocalFactorError)
from partialzeta.frobenius import log_L, log_zeta_Pn
from partialzeta.lfunctions import prime_order_character
from partialzeta.numberfield import cyclic_system, kronecker_system
from partialzeta.primes import SIEVE_CAP, factorize, primes_up_to

from prime_data import (ExplicitSystem, PrimeDatum, explicit_system,
                        random_order6_system, table_rows)
from system_json import system_from_json, system_to_json
from zeta_oracles import (local_factor, reference_log_product, truncated_L,
                          truncated_zeta_P, truncated_zeta_Pn)


def simple_system():
    data = [PrimeDatum(norm=2, id=0, frob_class=1, frob_order=2),
            PrimeDatum(norm=3, id=1, frob_class=0, frob_order=1),
            PrimeDatum(norm=5, id=2, frob_class=1, frob_order=2)]
    return explicit_system(data, group_order=2)


class TestPrimeDatum:
    """ExplicitSystem checks its columns as PrimeDatum checks a row."""

    def test_norm_must_exceed_one(self):
        with pytest.raises(InvalidConfigError):
            ExplicitSystem([2.0, 1.0], [0, 0], [1, 1], group_order=1)
        with pytest.raises(InvalidConfigError):
            ExplicitSystem([float("nan")], [0], [1], group_order=1)

    def test_frob_order_positive(self):
        with pytest.raises(InvalidConfigError):
            ExplicitSystem([2.0, 3.0], [0, 0], [1, 0], group_order=2)
        with pytest.raises(InvalidConfigError):
            ExplicitSystem([2.0], [0], [-2], group_order=2)

    def test_frob_order_divides_group_order(self):
        with pytest.raises(InvalidConfigError):
            ExplicitSystem([2.0, 3.0], [0, 1], [1, 4], group_order=6)

    def test_columns_of_one_length(self):
        with pytest.raises(InvalidConfigError):
            ExplicitSystem([2.0, 3.0], [0], [1, 1], group_order=2)

    def test_classes_reduced_mod_group_order(self):
        sys = ExplicitSystem([2.0, 3.0], [7, -1], [6, 6], group_order=6)
        assert sys.primes_up_to(5).frob_class.tolist() == [1, 5]


class TestExpOfLog:
    @pytest.mark.parametrize("log_value", [
        complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
        complex(-math.inf, 1.0), complex(1.0, math.inf),
        complex(709.9, math.pi / 4),  # finite parts, modulus above DBL_MAX
        complex(-708.4, 1.0), complex(-750.0, 0.0)],  # below DBL_MIN
        ids=["nan-re", "nan-im", "inf", "minus-inf", "inf-im", "modulus",
             "subnormal", "zero"])
    def test_domain_error(self, log_value):
        with pytest.raises(DomainError):
            exp_of_log(log_value)

    def test_finite(self):
        assert exp_of_log(complex(math.log(2.0), math.pi)) == pytest.approx(-2)
        assert abs(exp_of_log(complex(-708.39, 1.0))) >= sys.float_info.min


class TestLocalFactor:
    def test_norm2_s1(self):
        assert local_factor(PrimeDatum(norm=2, id=0), 1.0) == pytest.approx(2.0)

    def test_norm3_s2(self):
        assert local_factor(PrimeDatum(norm=3, id=0), 2.0) == pytest.approx(9 / 8)

    def test_imaginary_s_on_unit_circle(self):
        # 2^{-i pi/log 2} = e^{-i pi} = -1, so the factor is 1/2
        s = 1j * math.pi / math.log(2)
        assert local_factor(PrimeDatum(norm=2, id=0), s) == pytest.approx(0.5)

    def test_singular_factor_raises(self):
        with pytest.raises(SingularLocalFactorError):
            local_factor(PrimeDatum(norm=2, id=0), 0.0)


class TestPartition:
    """P_n is the set of prime-table rows with frob_order n, the rows
    log_zeta_Pn selects."""

    def test_quadratic_d5_buckets(self):
        # squares mod 5 are {1, 4}: 11 = 1 splits; 2, 3, 7 inert; 5 ramified
        norms, _, order = kronecker_system(5).arrays_up_to(12)
        assert sorted(norms[order == 1].tolist()) == [11]
        assert sorted(norms[order == 2].tolist()) == [2, 3, 7]

    def test_singleton(self):
        sys = explicit_system([PrimeDatum(norm=2, id=0, frob_class=1,
                                         frob_order=2)], group_order=2)
        _, _, order = sys.arrays_up_to(2.5)
        assert set(order.tolist()) == {2}

    def test_buckets_disjoint_and_complete(self):
        sys5 = kronecker_system(5)
        _, _, order = sys5.arrays_up_to(500)
        total = sum(int(np.count_nonzero(order == n)) for n in (1, 2))
        assert total == len(sys5.primes_up_to(500))


class TestTruncatedProducts:
    def test_empty_bucket_returns_one(self):
        sys = simple_system()
        val, tail = truncated_zeta_Pn(sys, 4, 2.0, TruncationPolicy(10))
        assert val == 1.0

    def test_product_over_buckets_equals_zeta_P(self):
        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**4)
        s = 2.0
        v1, _ = truncated_zeta_Pn(sys5, 1, s, pol)
        v2, _ = truncated_zeta_Pn(sys5, 2, s, pol)
        vp, _ = truncated_zeta_P(sys5, s, pol)
        assert abs(v1 * v2 - vp) <= 1e-12 * abs(vp)

    def test_cross_cutoff_against_high_cutoff_oracle(self):
        # frozen oracle: zeta_{P_2}(2) for d=5 at the 1e7 sieve cap
        # [value recomputed from the X=1e7 enumeration: direct log-sum]
        sys5 = kronecker_system(5)
        hi, _ = truncated_zeta_Pn(sys5, 2, 2.0, TruncationPolicy(10**7))
        lo, tail = truncated_zeta_Pn(sys5, 2, 2.0, TruncationPolicy(10**4))
        # the true gap at X=1e4 is ~5e-6; the certified tail must cover it
        assert abs(cmath.log(hi / lo)) <= tail
        assert abs(hi - lo) < 1e-4

    def test_monotone_truncation_real_s(self):
        sys5 = kronecker_system(5)
        cuts = [10**2, 10**3, 10**4, 10**5]
        vals, tails = [], []
        for x in cuts:
            v, t = truncated_zeta_Pn(sys5, 2, 1.5, TruncationPolicy(x))
            vals.append(v.real)
            tails.append(t)
        assert vals == sorted(vals)
        assert tails == sorted(tails, reverse=True)

    def test_tail_soundness_by_doubling(self):
        sys5 = kronecker_system(5)
        s = 1.3
        ref, _ = truncated_zeta_P(sys5, s, TruncationPolicy(2 * 10**6))
        for x in (10**3, 10**4, 10**5):
            v, tail = truncated_zeta_P(sys5, s, TruncationPolicy(x))
            assert abs(cmath.log(ref / v)) <= tail

    def test_tail_infinite_at_or_below_one(self):
        assert TruncationPolicy(100).tail_bound(1.0) == float("inf")

    def test_singular_sibling_twist_spares_zeta_P(self):
        # 2 is inert for d = 5; at s = i pi / log 2 its zeta_P factor
        # 1 - 2^{-s} is 2, while the twist by -1, 1 + 2^{-s}, vanishes
        s, pol = 1j * math.pi / math.log(2), TruncationPolicy(100)
        sys5 = kronecker_system(5)
        p, _ = truncated_zeta_P(sys5, s, pol)
        p2, _ = truncated_zeta_Pn(sys5, 2, s, pol)
        with pytest.raises(SingularLocalFactorError):
            truncated_L(sys5, 1, s, pol)
        # the values of a system that never computes the twist
        alone = kronecker_system(5)
        assert p2 == exp_of_log(log_zeta_Pn(alone, 2, s, pol, twists=False))
        assert p == exp_of_log(log_zeta_Pn(alone, 1, s, pol, twists=False)
                               + log_zeta_Pn(alone, 2, s, pol, twists=False))


class TestEnumeration:
    def test_increasing_cutoff_appends(self):
        sys5 = kronecker_system(5)
        small = sys5.primes_up_to(100)
        large = sys5.primes_up_to(1000)
        assert table_rows(large)[: len(small)] == table_rows(small)

    def test_deterministic(self):
        a = kronecker_system(5).primes_up_to(10**4)
        b = kronecker_system(5).primes_up_to(10**4)
        assert table_rows(a) == table_rows(b)

    def test_cutoffs_up_then_down_are_prefixes(self):
        sys5 = kronecker_system(5)
        fresh = kronecker_system(5).primes_up_to(10**4)
        for x in (10, 100, 10**3, 10**4, 10**3, 100, 10, 1.5):
            got = sys5.primes_up_to(x)
            assert table_rows(got) == table_rows(fresh[: len(got)])
            assert len(got) == np.count_nonzero(fresh.norm <= x)

    @pytest.mark.parametrize("rows", [
        [(3.0, 0), (2.0, 1), (2.0, 0), (5.0, 2)],  # out of order, equal norms
        [(2.0, 1), (3.0, 0), (5.0, 2)],            # already strictly increasing
    ])
    def test_table_sorted_by_norm_then_id(self, rows):
        norms, ids = (np.array(col) for col in zip(*rows))
        zeros = np.zeros(len(rows), np.int8)
        table = PrimeTable(norms, zeros, zeros + 1, ids)

        class Fixed(ZetaSystem):
            def _enumerate(self, X):
                return table[np.flatnonzero(table.norm <= X)]

        got = Fixed(1).primes_up_to(10)
        assert list(zip(got.norm.tolist(), got.id.tolist())) == sorted(rows)

    def test_sieve_cap_enforced(self):
        with pytest.raises(BudgetExceededError):
            primes_up_to(SIEVE_CAP * 2)

    def test_nan_cutoff_rejected(self):
        with pytest.raises(InvalidConfigError):
            primes_up_to(float("nan"))
        with pytest.raises(InvalidConfigError):
            kronecker_system(5).primes_up_to(float("nan"))

    def test_sieve_values(self):
        assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def naive_primes(x: float) -> list[int]:
    """Primes <= x by trial division."""
    return [n for n in range(2, int(x) + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]


def full_width_primes(n: int) -> np.ndarray:
    """Primes <= n by an Eratosthenes sieve over every integer."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.flatnonzero(mask)


NAIVE_2000 = naive_primes(2000)
FULL_WIDTH_1E6 = full_width_primes(10**6)


def assert_primes(x):
    got = primes_up_to(x)
    assert got.dtype == np.int64
    if x <= 2000:
        assert got.tolist() == NAIVE_2000[:bisect.bisect(NAIVE_2000, x)]
    else:
        ref = FULL_WIDTH_1E6
        assert np.array_equal(got, ref[:np.searchsorted(ref, x, side="right")])


class TestSieve:
    def test_every_x_up_to_2000_from_empty_cache(self):
        # each x sieves exactly to int(x): every prime square and odd target
        for x in range(0, 2001):
            assert_primes(x)

    @pytest.mark.parametrize("x", [2, 3, 4, 2.5, 1.99, 9, 25, 49, 121, 961, 1849])
    def test_small_and_prime_square_cutoffs(self, x):
        assert_primes(x)

    def test_minus_infinity_cutoff(self):
        # tested before int(x), which would overflow
        got = primes_up_to(float("-inf"))
        assert got.dtype == np.int64 and len(got) == 0

    @given(st.floats(min_value=-5.0, max_value=1e6))
    @settings(max_examples=60, deadline=None)
    def test_against_reference_up_to_1e6(self, x):
        assert_primes(x)

    @pytest.mark.parametrize("order", [
        (100, 5000, 5001), (5000, 100, 4999), (3000, 1e5, 2048, 1e5 + 1),
        (64, 65, 127, 128, 129), (1e6, 997, 1e6, 7)])
    def test_growth_order(self, order):
        # a call's primes do not depend on the calls before it
        for x in order:
            assert_primes(x)

    @pytest.mark.parametrize("segments", [1, 2, 3, 7])
    def test_segments_strike_what_one_loop_strikes(self, monkeypatch,
                                                   segments):
        # edge is the least target whose odd numbers make `segments`
        # segments, two below it make one fewer; segments of 2^16 odd
        # numbers keep 7 of them under the sieve cap
        monkeypatch.setattr(core, "_cpu_count", lambda: segments)
        monkeypatch.setattr(primes, "SEGMENT_MIN", 2**16)
        edge = 2 * segments * primes.SEGMENT_MIN
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            for x in range(edge - 3, edge + 2):
                assert np.array_equal(primes_up_to(x), full_width_primes(x))
            # segments of a few odd numbers put an edge next to every small
            # prime square
            for short in (1, 3, 5):
                monkeypatch.setattr(primes, "SEGMENT_MIN", short)
                for x in range(64, 300):
                    assert primes_up_to(x).tolist() == NAIVE_2000[
                        :bisect.bisect(NAIVE_2000, x)], (short, x)
        finally:
            sys.setswitchinterval(interval)

    def test_mutating_a_result_leaves_the_cache_intact(self):
        # a caller may write to its array: later calls build their own
        got = primes_up_to(1000)
        got[:] = 4
        assert_primes(1000)
        assert_primes(500)
        big = primes_up_to(3000)
        big[::2] = 0
        assert_primes(3000)


class TestFactorize:
    @given(st.integers(min_value=-10, max_value=10**7))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        expected = sympy.factorint(n) if n >= 2 else {}
        got = factorize(n)
        assert got == expected
        assert list(got) == sorted(expected)

    def test_prime_powers_and_products(self):
        assert factorize(2**10 * 3 * 7**2) == {2: 10, 3: 1, 7: 2}
        assert factorize(9_999_991) == {9_999_991: 1}
        assert factorize(1) == {}


class TestSerialization:
    def test_json_roundtrip_quadratic(self):
        sys5 = kronecker_system(5)
        clone = system_from_json(system_to_json(sys5))
        assert (table_rows(clone.primes_up_to(200))
                == table_rows(sys5.primes_up_to(200)))

    @pytest.mark.parametrize("modulus,order", [
        (43, 2), (73, 3), (79, 3), (97, 3), (103, 2), (109, 2), (151, 5),
        (157, 3)])
    def test_json_roundtrip_cyclic(self, modulus, order):
        # the least residue with exponent 1 is not a primitive root here
        sys = cyclic_system(prime_order_character(modulus, order))
        clone = system_from_json(system_to_json(sys))
        assert (table_rows(clone.primes_up_to(10**4))
                == table_rows(sys.primes_up_to(10**4)))

    def test_json_roundtrip_explicit(self):
        sys = simple_system()
        clone = system_from_json(system_to_json(sys))
        assert (table_rows(clone.primes_up_to(10))
                == table_rows(sys.primes_up_to(10)))
        assert clone.group_order == 2

    def test_csv_dump(self):
        sys = simple_system()
        lines = sys.dump_csv(4).splitlines()
        assert lines[0] == "id,norm,frob_class,frob_order"
        assert lines[1] == "0,2,1,2"
        assert len(lines) == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidConfigError):
            system_from_json('{"backend": "astral", "params": {}}')

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidConfigError):
            system_from_json("not json")


class TestLogProductStability:
    def test_log_space_matches_direct_product(self):
        sys = simple_system()
        pol = TruncationPolicy(10)
        s = 1.5 + 2.0j
        direct = 1.0
        for row in table_rows(sys.primes_up_to(10)):
            direct *= local_factor(PrimeDatum(*row), s)
        assert abs(cmath.exp(log_L(sys, 0, s, pol)) - direct) < 1e-14


class TestClassSumsTerm:
    """term(j, key) twists slice key = (c, n) by roots_of_unity(q)[j c mod q]:
    the reference kernel's sum with that twist, bit for bit, for every
    character and slice, at one point and over a batch."""

    @pytest.mark.parametrize("s", [1.5 + 2.0j, np.array([1.2, 1.5 + 2.0j,
                                                         2.0 - 3.0j])],
                             ids=["point", "batch"])
    def test_every_index_and_slice(self, s):
        sys_obj = random_order6_system()
        q = sys_obj.group_order
        sums = sys_obj.class_sums(1e3, s)
        roots = core.roots_of_unity(q)
        for j in range(q):
            for (c, n), norms in sums.slices.items():
                got = np.atleast_1d(sums.term(j, (c, n)))
                ref = [reference_log_product(norms, roots[j * c % q], z)
                       for z in np.atleast_1d(s).tolist()]
                assert np.array_equal(got, ref), (j, c, n)
