"""Functional equations, recursive continuation, singularity bookkeeping."""
import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partialzeta import core, lfunctions
from partialzeta.continuation import (GEvaluator, PartialZetaEvaluator,
                                      SingularityCatalog, SingularPoint,
                                      boundary_report, continue_f_power,
                                      counting_functions, lambda_q_betas,
                                      mq_classes)
from partialzeta.core import TruncationPolicy
from partialzeta.frobenius import feq_residual
from partialzeta.errors import (DomainError, InsufficientDataError,
                                InvalidConfigError, PoleAtOneError)
from partialzeta.lfunctions import prime_order_character
from partialzeta.numberfield import (cyclic_system, g_closed_form,
                                     kronecker_system)

from composite_feq import composite_feq_residual
from prime_data import PrimeDatum, explicit_system, order6_system
from zeta_oracles import truncated_zeta_Pn


class TestFeqResidual:
    def test_d5(self):
        sys5 = kronecker_system(5)
        assert feq_residual(sys5, 1.7 + 3.1j, 10**4) <= 1e-10

    def test_only_order1_primes_trivial(self):
        sys = explicit_system([PrimeDatum(norm=2, id=0, frob_class=0,
                                         frob_order=1)], group_order=2)
        assert feq_residual(sys, 2.0, 10) <= 1e-14

    def test_against_numeric_L_oracle(self):
        # RHS evaluated with independent numeric zeta/L at X=1e5: the
        # difference is the truncation tail, well under 1e-4 at s=2
        from partialzeta.lfunctions import dirichlet_L, kronecker_character

        from zeta_oracles import riemann_zeta

        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**5)
        s = 2.0
        f, _ = truncated_zeta_Pn(sys5, 2, s, pol)
        fq, _ = truncated_zeta_Pn(sys5, 2, 2 * s, pol)
        lhs = f**2 / fq
        chi = kronecker_character(5)
        g_num = (riemann_zeta(s) / dirichlet_L(s, chi) * (1.0 - 5.0**-s))
        assert abs(lhs - g_num) < 1e-4


class TestCompositeFeq:
    def test_order6_residual(self):
        assert composite_feq_residual(order6_system(), 1.6 + 0.8j,
                                      100) <= 1e-10

    def test_order1_only_system(self):
        sys = explicit_system([PrimeDatum(norm=2, id=0, frob_class=0,
                                         frob_order=1)], group_order=6)
        assert composite_feq_residual(sys, 2.0, 10) <= 1e-13

    def test_prime_order_rejected(self):
        sys5 = kronecker_system(5)
        with pytest.raises(InvalidConfigError):
            composite_feq_residual(sys5, 2.0, 100)

    def test_nested_reduction(self):
        # f(s) := zeta_P6(s)^{q2}/zeta_P6(q2 s) satisfies f(s)^{q1}/f(q1 s)
        # = zeta_P6(s)^{q1 q2} * zeta_P6(q1 q2 s) / [zeta_P6(q1 s)^{q2} zeta_P6(q2 s)^{q1}]
        sys6 = order6_system()
        pol = TruncationPolicy(100)
        q1, q2 = 2, 3
        s = 1.5

        def f(z):
            a, _ = truncated_zeta_Pn(sys6, 6, z, pol)
            b, _ = truncated_zeta_Pn(sys6, 6, q2 * z, pol)
            return a**q2 / b

        def z6(z):
            v, _ = truncated_zeta_Pn(sys6, 6, z, pol)
            return v

        lhs = f(s) ** q1 / f(q1 * s)
        rhs = z6(s) ** (q1 * q2) * z6(q1 * q2 * s) / (
            z6(q1 * s) ** q2 * z6(q2 * s) ** q1)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


class TestContinueFPower:
    def test_depth0_is_truncated_product(self):
        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**3)
        ev = PartialZetaEvaluator(sys5, g_closed_form(sys5), 0, pol)
        direct, _ = truncated_zeta_Pn(sys5, 2, 2.0, pol)
        assert ev(2.0) == direct

    def test_direct_substitution_oracle(self):
        # depth 1 at s = 0.75: value = g(0.75) * f(1.5) by Eq-level identity
        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**4)
        g = g_closed_form(sys5)
        ev = PartialZetaEvaluator(sys5, g, 1, pol)
        f15, _ = truncated_zeta_Pn(sys5, 2, 1.5, pol)
        assert abs(ev(0.75) - g(0.75) * f15) < 1e-12

    def test_domain_guard(self):
        sys5 = kronecker_system(5)
        ev = PartialZetaEvaluator(sys5, g_closed_form(sys5), 1,
                                  TruncationPolicy(10**3))
        with pytest.raises(DomainError):
            ev(0.5)

    def test_recursion_coherence_within_tails(self):
        sys5 = kronecker_system(5)
        pol = TruncationPolicy(10**6)
        g = g_closed_form(sys5)
        ev1 = PartialZetaEvaluator(sys5, g, 1, pol)
        ev2 = PartialZetaEvaluator(sys5, g, 2, pol)
        s = 0.95 + 2.0j
        v1, v2 = ev1(s), ev2(s)
        tails = (2 * pol.tail_bound(2 * s.real, sys5.count_coeff())
                 + pol.tail_bound(4 * s.real, sys5.count_coeff()))
        assert abs(cmath.log(v1**2 / v2)) <= 10 * tails


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


class TestBatchedContinuation:
    """A batch of points gives each point the value of a lone evaluation."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("system", ["d5", "7,3,3"])
    def test_batch_equals_pointwise(self, system, depth):
        sys_obj = (kronecker_system(5) if system == "d5"
                   else cyclic_system(prime_order_character(7, 3, 3)))
        ev = PartialZetaEvaluator(sys_obj, g_closed_form(sys_obj), depth,
                                  TruncationPolicy(10**4))
        pts = [complex(re, im) for re in (0.05, 0.3, 0.55, 0.8, 1.0, 1.7)
               for im in (-7.5, -0.0, 0.0, 3.25, 20.0, 60.0)]
        pts += pts[:3]
        batch = ev(np.array(pts))
        assert batch.shape == (len(pts),)
        for z, got in zip(pts, batch.tolist()):
            try:
                want = ev(z)
            except (DomainError, PoleAtOneError):
                assert cmath.isnan(got)
            else:
                assert _bits(got) == _bits(want)

    def test_one_kernel_call_per_slice_and_one_g_call_per_level(
            self, monkeypatch):
        sys_obj = cyclic_system(prime_order_character(7, 3, 3))
        g = g_closed_form(sys_obj)
        sizes = []
        fn = g.fn

        def counted(s):
            sizes.append(len(s))
            return fn(s)

        g.fn = counted
        calls = []
        kernel = core.log_product

        def counted_kernel(norms, chi, s):
            calls.append(len(s))
            return kernel(norms, chi, s)

        monkeypatch.setattr(core, "log_product", counted_kernel)
        hurwitz_sizes = []
        hurwitz = lfunctions.hurwitz_zeta

        def counted_hurwitz(s, a):
            hurwitz_sizes.append(len(s))
            return hurwitz(s, a)

        monkeypatch.setattr(lfunctions, "hurwitz_zeta", counted_hurwitz)
        ev = PartialZetaEvaluator(sys_obj, g, 2, TruncationPolicy(10**3))
        pts = np.array([complex(0.2 + 0.001 * k, 0.01 * k) for k in range(300)])
        ev(pts)
        # slices (1, 3) and (2, 3) of order q; one g call of 300 points per
        # level, whose dirichlet_L cuts 256 + 44 points for Hurwitz
        assert calls == [300, 300]
        assert sizes == [300, 300]
        assert hurwitz_sizes == [256, 44, 256, 44]

    def test_refused_points_are_nan_in_a_batch(self):
        # Re s at or below 1/q^r, and 2s above the L range |Im| <= 100
        sys5 = kronecker_system(5)
        ev = PartialZetaEvaluator(sys5, g_closed_form(sys5), 2,
                                  TruncationPolicy(10**3))
        pts = [0.3 + 7.0j, 0.2 + 1j, 0.25 + 3j, 0.7 + 60j]
        vals = ev(np.array(pts)).tolist()
        assert [cmath.isnan(v) for v in vals] == [False, True, True, True]
        assert vals[0] == ev(pts[0])
        # every point refused: each level's g takes an empty batch
        assert np.isnan(ev(np.array(pts[1:]))).all()
        for z in pts[1:]:
            with pytest.raises(DomainError):
                ev(z)

    def test_depth_whose_power_overflows(self):
        sys5 = kronecker_system(5)
        PartialZetaEvaluator(sys5, g_closed_form(sys5), 1023,
                             TruncationPolicy(10**3))
        with pytest.raises(InvalidConfigError):
            PartialZetaEvaluator(sys5, g_closed_form(sys5), 1024,
                                 TruncationPolicy(10**3))

    def test_g_range(self):
        sys5 = kronecker_system(5)
        g = g_closed_form(sys5)
        assert g.max_height == 100.0
        with pytest.raises(DomainError):
            g(0.5 + 100.5j)
        with pytest.raises(PoleAtOneError):
            g(np.array([2.0, 1.0]))
        assert GEvaluator(lambda s: s).refusal(0.5 + 1e300j) is None


class TestMqClasses:
    def test_singleton_class(self):
        cat = SingularityCatalog([SingularPoint(0.5 + 3j, 1)], 10.0)
        classes = mq_classes(cat, 2)
        assert len(classes) == 1
        assert classes[0][1] == pytest.approx(1.0)

    def test_designed_cancellation(self):
        # pair (sigma, m=1) and (q sigma, m=-q): M_q = 1 + (1/q)(-q) = 0
        q = 2
        sigma = 0.25 + 3.0j
        cat = SingularityCatalog([SingularPoint(sigma, 1),
                                  SingularPoint(q * sigma, -q)], 20.0)
        classes = mq_classes(cat, q)
        assert len(classes) == 1
        assert abs(classes[0][1]) < 1e-12
        assert lambda_q_betas(cat, q) == []

    def test_periodic_catalog_all_singletons(self):
        pts = [SingularPoint(complex(0.5, 1.1 + 2.0 * k), 1) for k in range(8)]
        cat = SingularityCatalog(pts, 20.0)
        classes = mq_classes(cat, 2)
        assert len(classes) == 8
        assert all(w == pytest.approx(1.0) for _, w in classes)

    @pytest.mark.parametrize("q", [1, 0, -1])
    def test_q_below_2_refused(self, q):
        # q^k sigma would never pass the catalog height
        cat = SingularityCatalog([SingularPoint(0.5 + 3j, 1)], 10.0)
        with pytest.raises(InvalidConfigError):
            mq_classes(cat, q)
        with pytest.raises(InvalidConfigError):
            counting_functions(cat, q, 10.0, 0.25)


class TestCountingFunctions:
    def test_empty(self):
        cat = SingularityCatalog([], 10.0)
        assert counting_functions(cat, 2, 10.0, 0.25) == (0, 0, 0)

    def test_single_pole_counts_in_J(self):
        cat = SingularityCatalog([SingularPoint(0.2 + 5j, -1)], 10.0)
        i_t, j_t, _ = counting_functions(cat, 2, 10.0, 0.3)
        assert (i_t, j_t) == (0, 1)

    def test_alpha_range_validated(self):
        cat = SingularityCatalog([], 10.0)
        with pytest.raises(InvalidConfigError):
            counting_functions(cat, 2, 10.0, 0.7)

    def test_zero_on_critical_line_counts_in_I(self):
        cat = SingularityCatalog([SingularPoint(0.5 + 14.1347j, 1),
                                  SingularPoint(0.4 + 3j, 2)], 20.0)
        i_t, j_t, om = counting_functions(cat, 2, 20.0, 0.25)
        assert i_t == 1 and j_t == 0
        assert om >= 2  # both classes contribute at least their representative


class TestBoundaryReport:
    def test_linear_catalog_consistent(self):
        pts = [SingularPoint(complex(0.5, j + 1), 1) for j in range(999)]
        cat = SingularityCatalog(pts, 1000.0)
        rep = boundary_report(cat, 2, 1000.0)
        assert rep["verdict"] == "consistent-with-natural-boundary"
        assert rep["trend"]["last_ratio"] < 1.02

    def test_geometric_catalog_not_consistent(self):
        pts = [SingularPoint(complex(0.5, 2.0**j), 1) for j in range(10)]
        cat = SingularityCatalog(pts, 1100.0)
        rep = boundary_report(cat, 3, 1100.0)
        assert rep["verdict"] != "consistent-with-natural-boundary"
        assert rep["verdict"] == "gap-found"
        assert rep["largest_gap"]["ratio"] > 1.1

    def test_insufficient_data(self):
        pts = [SingularPoint(complex(0.5, j + 1.0), 1) for j in range(5)]
        cat = SingularityCatalog(pts, 10.0)
        with pytest.raises(InsufficientDataError):
            boundary_report(cat, 2, 10.0)

    def test_empty_catalog(self):
        with pytest.raises(InsufficientDataError):
            boundary_report(SingularityCatalog([], 10.0), 2, 10.0)

    def test_report_shape(self):
        pts = [SingularPoint(complex(0.5, j + 1), 1) for j in range(50)]
        cat = SingularityCatalog(pts, 60.0)
        rep = boundary_report(cat, 2, 60.0)
        assert set(rep) >= {"betas", "trend", "gaps", "largest_gap", "verdict"}
        assert all(g["t2"] > g["t1"] for g in rep["gaps"])

    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_first_probe_window_stable_under_rounding(self, ulps):
        # the first probe is beta_min / q^3, exactly on beta_min's residue;
        # the window reported there must not hinge on beta_min's last bit
        betas = [6.648453344727717, 9.83144443288667, 11.958845626083518,
                 14.134725141734691, 16.033821128384233, 17.566994292325557,
                 19.540732622784752, 21.022039638771542, 22.22740545445941,
                 24.588466217408193, 25.010857580145707, 26.77609594800414]
        for _ in range(abs(ulps)):
            betas[0] = math.nextafter(betas[0], math.copysign(math.inf, ulps))
        cat = SingularityCatalog([SingularPoint(complex(0.5, b), -1)
                                  for b in betas], 28.0)
        first = boundary_report(cat, 2, 28.0)["gaps"][0]
        assert first["t1"] == pytest.approx(betas[0] / 8, rel=1e-12)
        assert first["t2"] == pytest.approx(0.83675299837513, rel=1e-12)


class TestCatalogSerialization:
    def test_roundtrip(self):
        pts = [SingularPoint(0.5 + 14.134725j, 1),
               SingularPoint(0.25 + 3.2j, -2)]
        cat = SingularityCatalog(pts, 20.0)
        clone = SingularityCatalog.from_csv(cat.to_csv(), 20.0)
        assert clone.points == pts

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3),
                              st.floats(0.0, 1e3, exclude_min=True),
                              st.integers(-6, 6).filter(bool)),
                    max_size=12, unique_by=lambda r: (r[0], r[1])))
    def test_csv_roundtrip_property(self, rows):
        # points 1e-9 apart stay distinct once printed to 15 digits
        assume(all(abs(complex(*a[:2]) - complex(*b[:2])) > 1e-9
                   for i, a in enumerate(rows) for b in rows[:i]))
        cat = SingularityCatalog([SingularPoint(complex(re, im), order)
                                  for re, im, order in rows], 50.0)
        text = cat.to_csv()
        clone = SingularityCatalog.from_csv(text, 50.0)
        assert clone.to_csv() == text
        assert [p.order for p in clone.points] == [o for _, _, o in rows]

    @pytest.mark.parametrize("im", [0.0, -0.0, -3.0])
    def test_point_off_the_upper_strip_refused(self, im):
        # its dilates q^k s would never pass the catalog height
        with pytest.raises(InvalidConfigError):
            SingularityCatalog([SingularPoint(complex(0.5, im), 1)], 10.0)
        with pytest.raises(InvalidConfigError):
            SingularityCatalog.from_csv(f"re,im,order\n0.5,{im},1\n", 10.0)

    def test_header_required(self):
        with pytest.raises(InvalidConfigError):
            SingularityCatalog.from_csv("x,y,z\n1,2,3\n", 10.0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(InvalidConfigError):
            SingularityCatalog([SingularPoint(0.5 + 1j, 1),
                                SingularPoint(0.5 + 1j, 2)], 10.0)

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidConfigError):
            SingularPoint(0.5 + 1j, 0)
