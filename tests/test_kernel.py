"""Euler-product kernel: the per-class slice sums shared by every product at
a point, checked against one full pass per product."""
import math
import random

import numpy as np
import pytest

from partialzeta import core
from partialzeta.cli import main
from partialzeta.continuation import feq_residual
from partialzeta.core import (ExplicitSystem, PrimeDatum, TruncationPolicy,
                              log_zeta_P, log_zeta_Pn, roots_of_unity)
from partialzeta.errors import SingularLocalFactorError
from partialzeta.frobenius import Character, CyclicGroup, log_L
from partialzeta.graphs import GraphZetaSystem, MultiGraph, VoltageGraph
from partialzeta.lfunctions import prime_order_character
from partialzeta.numberfield import cyclic_system, kronecker_system
from partialzeta.primes import primes_up_to

from zeta_oracles import pass_log_L, pass_log_zeta_P, pass_log_zeta_Pn

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def order6_system():
    """#G = 6 over the rational primes below 3000, seeded random classes;
    frob_order is the order of the class in Z/6."""
    rng = random.Random(6)
    data = []
    for i, p in enumerate(primes_up_to(3000).tolist()):
        c = rng.randrange(6)
        data.append(PrimeDatum(norm=p, id=i, frob_class=c,
                               frob_order=6 // math.gcd(c, 6)))
    return ExplicitSystem(data, group_order=6)


SYSTEMS = {
    "quadratic-d5": (lambda: kronecker_system(5), 1e5),
    "quadratic-d-1": (lambda: kronecker_system(-1), 1e5),
    "cyclic-7,3": (lambda: cyclic_system(prime_order_character(7, 3, 3)), 1e5),
    "cyclic-11,5": (lambda: cyclic_system(prime_order_character(11, 5)), 1e5),
    "graph-K4/Z3": (lambda: GraphZetaSystem(VoltageGraph(
        MultiGraph(4, K4_EDGES), 3, [1, 0, 0, 0, 0, 1])), 2.0**10),
    "explicit-Z6": (order6_system, 1e4),
}
POINTS = [1.2, 1.2 + 9.5j, 2.0 - 3.0j, 2.0 + 14.0j]


def assert_rel(new, ref, rel=1e-12):
    assert abs(new - ref) <= rel * abs(ref), (new, ref)


class TestAgainstOnePassPerProduct:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_products_agree(self, name):
        make, X = SYSTEMS[name]
        sys_obj = make()
        pol = TruncationPolicy(X)
        q = sys_obj.group_order
        g = CyclicGroup(q)
        for s in POINTS:
            assert_rel(log_zeta_P(sys_obj, s, pol), pass_log_zeta_P(sys_obj, s, X))
            for n in g.divisors():
                for z in (s, n * s):
                    assert_rel(log_zeta_Pn(sys_obj, n, z, pol),
                               pass_log_zeta_Pn(sys_obj, n, z, X))
            for j in range(q):
                assert_rel(log_L(sys_obj, Character(g, j), s, pol),
                           pass_log_L(sys_obj, j, s, X))


class TestSharedPass:
    def test_eval_touches_each_prime_about_once(self, monkeypatch, capsys):
        # zeta_P, zeta_P1, zeta_P2, L0 and L1 at one point: a split prime
        # needs one term for the four it is in, an inert one two (w = 1, -1).
        # Below 1e6 there are 39,210 split and 39,287 inert primes, so the
        # count is 1.5002 pi(1e6); one pass per product touched 4 pi(1e6).
        touched = []
        orig = core.log_product

        def counting(norms, chi, s):
            touched.append(len(norms))
            return orig(norms, chi, s)

        monkeypatch.setattr(core, "log_product", counting)
        assert main(["eval", "--d", "5", "--s", "2,1", "--cutoff", "1e6"]) == 0
        capsys.readouterr()
        _, _, orders = kronecker_system(5).arrays_up_to(1e6)
        split, inert = np.count_nonzero(orders == 1), np.count_nonzero(orders == 2)
        assert sum(touched) == split + 2 * inert
        assert sum(touched) < 1.51 * len(primes_up_to(1e6))

    def test_feq_takes_its_own_pass_at_q_s(self, monkeypatch):
        # zeta_{P_q}(q s) is not assembled from the character sums at s
        points = []
        orig = core.log_product

        def recording(norms, chi, s):
            points.append(complex(s))
            return orig(norms, chi, s)

        monkeypatch.setattr(core, "log_product", recording)
        s = 1.5 + 2.0j
        assert feq_residual(kronecker_system(5), s, 1e4) < 1e-14
        assert 2 * s in points

    def test_slices_built_once_per_cutoff(self):
        sys_obj = kronecker_system(5)
        pol = TruncationPolicy(1e4)
        log_zeta_P(sys_obj, 2.0, pol)
        slices = sys_obj.class_slices(1e4)
        log_zeta_P(sys_obj, 1.5 + 3.0j, pol)
        assert sys_obj.class_slices(1e4) is slices
        norms, classes, orders = sys_obj.arrays_up_to(1e4)
        assert sorted(slices) == [(0, 1), (1, 2)]
        for (c, o), part in slices.items():
            assert np.array_equal(part, norms[(classes == c) & (orders == o)])

    def test_point_cache_is_bounded(self):
        sys_obj = kronecker_system(5)
        pol = TruncationPolicy(1e3)
        for k in range(3 * core.POINT_CACHE):
            log_zeta_P(sys_obj, 2.0 + k * 1j, pol)
        assert len(sys_obj._sums) == core.POINT_CACHE

    @pytest.mark.parametrize("product", ["zeta_P", "L1"])
    def test_singular_factor_raises_on_every_call(self, product):
        sys_obj = ExplicitSystem([PrimeDatum(norm=2, id=0, frob_class=1,
                                             frob_order=2)], group_order=2)
        pol = TruncationPolicy(4)
        if product == "zeta_P":  # 2^{-0} = 1
            call = lambda: log_zeta_P(sys_obj, 0.0, pol)
        else:  # -2^{-s} = 1 at s = i pi / log 2
            s = 1j * math.pi / math.log(2)
            call = lambda: log_L(sys_obj, Character(CyclicGroup(2), 1), s, pol)
        for _ in range(2):
            with pytest.raises(SingularLocalFactorError):
                call()


class TestRootsOfUnity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_table(self, n):
        roots = roots_of_unity(n)
        assert len(roots) == n
        assert np.allclose(roots, np.exp(2j * np.pi * np.arange(n) / n),
                           rtol=0, atol=1e-15)
        exact = {0: 1, 1: 1j, 2: -1, 3: -1j}
        for k in range(n):
            if 4 * k % n == 0:
                assert roots[k] == exact[4 * k // n]
