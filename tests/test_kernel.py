"""Euler-product kernel: the per-class slice sums shared by every product at
a point, checked against one full pass per product."""
import math
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialzeta import core, primes
from partialzeta.cli import main
from partialzeta.core import TruncationPolicy, log_product, roots_of_unity
from partialzeta.errors import SingularLocalFactorError
from partialzeta.frobenius import feq_residual, log_L, log_zeta_Pn
from partialzeta.graphs import GraphZetaSystem, MultiGraph, VoltageGraph
from partialzeta.lfunctions import prime_order_character
from partialzeta.numberfield import (AbelianSystem, cyclic_system,
                                     kronecker_system)
from partialzeta.primes import primes_up_to

from prime_data import (ExplicitSystem, PrimeDatum, explicit_system,
                        random_order6_system)
from zeta_oracles import (pass_log_L, pass_log_zeta_P, pass_log_zeta_Pn,
                          reference_log_product)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


SYSTEMS = {
    "quadratic-d5": (lambda: kronecker_system(5), 1e5),
    "quadratic-d-1": (lambda: kronecker_system(-1), 1e5),
    "cyclic-7,3": (lambda: cyclic_system(prime_order_character(7, 3, 3)), 1e5),
    "cyclic-11,5": (lambda: cyclic_system(prime_order_character(11, 5)), 1e5),
    "graph-K4/Z3": (lambda: GraphZetaSystem(VoltageGraph(
        MultiGraph(4, K4_EDGES), 3, [1, 0, 0, 0, 0, 1])), 2.0**10),
    "explicit-Z6": (random_order6_system, 1e4),
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
        for s in POINTS:
            assert_rel(log_L(sys_obj, 0, s, pol), pass_log_zeta_P(sys_obj, s, X))
            for n in (n for n in range(1, q + 1) if q % n == 0):
                for z in (s, n * s):
                    assert_rel(log_zeta_Pn(sys_obj, n, z, pol),
                               pass_log_zeta_Pn(sys_obj, n, z, X))
            for j in range(q):
                assert_rel(log_L(sys_obj, j, s, pol),
                           pass_log_L(sys_obj, j, s, X))


class TestSharedPass:
    def test_eval_touches_each_prime_about_once(self, monkeypatch, capsys):
        # zeta_P, zeta_P1, zeta_P2, L0 and L1 at one point: a split prime
        # needs one term for the four it is in, an inert one two (w = 1, -1),
        # and both come from one norm^{-s} in one call per slice.  One call
        # per twist touched 1.5002 pi(1e6) primes, one pass per product
        # 4 pi(1e6).
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
        assert touched == [split, inert]
        assert sum(touched) == len(primes_up_to(1e6)) - 1  # 5 is ramified

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
        log_L(sys_obj, 0, 2.0, pol)
        slices = sys_obj.class_slices(1e4)
        log_L(sys_obj, 0, 1.5 + 3.0j, pol)
        assert sys_obj.class_slices(1e4) is slices
        norms, classes, orders = sys_obj.arrays_up_to(1e4)
        assert sorted(slices) == [(0, 1), (1, 2)]
        for (c, o), part in slices.items():
            assert np.array_equal(part, norms[(classes == c) & (orders == o)])

    def test_point_cache_is_bounded(self):
        sys_obj = kronecker_system(5)
        pol = TruncationPolicy(1e3)
        for k in range(3 * core.POINT_CACHE):
            log_L(sys_obj, 0, 2.0 + k * 1j, pol)
        assert len(sys_obj._sums) == core.POINT_CACHE

    @pytest.mark.parametrize("product", ["zeta_P", "L1"])
    def test_singular_factor_raises_on_every_call(self, product):
        sys_obj = explicit_system([PrimeDatum(norm=2, id=0, frob_class=1,
                                             frob_order=2)], group_order=2)
        pol = TruncationPolicy(4)
        if product == "zeta_P":  # 2^{-0} = 1
            call = lambda: log_L(sys_obj, 0, 0.0, pol)
        else:  # -2^{-s} = 1 at s = i pi / log 2
            s = 1j * math.pi / math.log(2)
            call = lambda: log_L(sys_obj, 1, s, pol)
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


# ---------------------------------------------------------------------------
# the in-place kernel against the one-array-per-operation reference
# ---------------------------------------------------------------------------

RATIONAL_PRIMES = primes_up_to(1e7).astype(float)


def _norms(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "primes":  # a run of consecutive primes, as in a class slice
        start = int(rng.integers(0, len(RATIONAL_PRIMES) - n + 1))
        return RATIONAL_PRIMES[start:start + n]
    if kind == "graph":  # powers of q_g = 2 with repeats, as in a graph table
        return np.sort(2.0 ** rng.integers(1, 24, n))
    # a strided view with arbitrary real norms
    return np.repeat(1.0 + rng.exponential(50.0, n), 2)[::2]


def _chi(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "float":
        return float(rng.choice([1.0, -1.0]))
    if kind == "int":
        return 1
    if kind == "root":  # a numpy complex scalar from the exact table
        m = int(rng.integers(1, 13))
        return roots_of_unity(m)[int(rng.integers(0, m))]
    if kind == "python-complex":
        return complex(np.exp(2j * np.pi * rng.integers(0, 7) / 7))
    k = int(rng.integers(1, 5))
    if kind == "sign-list":  # the twists of a slice under real characters
        return [float(w) for w in rng.choice([1.0, -1.0], k)]
    # the twists of a class of Z/6, the trivial one first as ClassSums has it
    roots = roots_of_unity(6)
    return [1.0] + [complex(roots[j]) for j in rng.integers(0, 6, k)]


def _bits(z):
    """The bytes of a complex value, or of each value of a list or array:
    exact, and tells -0.0 from 0.0."""
    return b"".join(struct.pack("<dd", v.real, v.imag)
                    for v in np.ravel(z).tolist())


def _reference(norms, chi, s):
    """reference_log_product at complex s, the kernel's arithmetic, with one
    twist or with each of a list."""
    s = complex(s)
    if isinstance(chi, list):
        return [reference_log_product(norms, w, s) for w in chi]
    return reference_log_product(norms, chi, s)


def _outcome(norms, chi, s, kernel):
    try:
        return _bits(kernel(norms, chi, s))
    except SingularLocalFactorError:
        return "singular"


SINGULAR_S = [0.0, 0j, 1j * math.pi / math.log(2)]  # 2^{-s} = 1 or -1


class TestKernelBitIdentity:
    @given(norm_kind=st.sampled_from(["primes", "graph", "strided"]),
           n=st.one_of(st.integers(0, 10), st.integers(0, 400_000)),
           chi_kind=st.sampled_from(["float", "int", "root", "python-complex",
                                     "sign-list", "twist-list"]),
           s=st.one_of(
               st.floats(-1.0, 4.0),
               st.builds(complex, st.floats(-1.0, 4.0), st.just(0.0)),
               st.builds(complex, st.floats(-1.0, 4.0), st.floats(-200, 200)),
               st.sampled_from(SINGULAR_S)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_same_bits_as_reference(self, norm_kind, n, chi_kind, s, seed):
        norms = _norms(norm_kind, n, seed)
        chi = _chi(chi_kind, n, seed)
        ref = _outcome(norms, chi, s, _reference)
        assert _outcome(norms, chi, s, log_product) == ref
        if ref != "singular":
            assert np.array_equal(log_product(norms, chi, s),
                                  _reference(norms, chi, s))

    @pytest.mark.parametrize("s", SINGULAR_S)
    @pytest.mark.parametrize("chi", [1.0, -1.0, -1 + 0j])
    def test_singular_factor_raised_at_the_same_inputs(self, s, chi):
        norms = np.array([2.0, 3.0, 5.0])
        assert (_outcome(norms, chi, s, log_product)
                == _outcome(norms, chi, s, reference_log_product))

    def test_singular_inputs_raise(self):
        with pytest.raises(SingularLocalFactorError):
            log_product(np.array([2.0, 3.0]), 1.0, 0.0)
        with pytest.raises(SingularLocalFactorError):
            log_product(np.array([2.0]), -1.0, SINGULAR_S[2])

    @pytest.mark.parametrize("s", [0.0, 0j])
    @pytest.mark.parametrize("n", [1, core.RANGE_CHUNK + 5])
    def test_factor_with_zero_real_part_is_not_singular(self, n, s):
        # 1 - w 2^{-0} = 0.5i: Re 0 flags the chunk, the modulus 0.5 clears it
        norms, w = np.full(n, 2.0), 1 - 0.5j
        assert (_outcome(norms, w, s, log_product)
                == _outcome(norms, w, s, reference_log_product) != "singular")

    @pytest.mark.parametrize("chi", [1.0, -1.0, -1 + 0j, roots_of_unity(3)[1]])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_inputs(self, n, chi):
        # one-element arrays take other numpy loops than long ones
        for s in (2.0, 0.5 + 14.1j, complex(0.75, 0.0), -0.5):
            norms = RATIONAL_PRIMES[:n]
            assert (_outcome(norms, chi, s, log_product)
                    == _outcome(norms, chi, s, _reference))

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("chi", [1.0, -1.0, [1.0, -1.0],
                                     [1.0, complex(roots_of_unity(3)[1])]])
    def test_real_s_is_complex_s(self, monkeypatch, workers, chi):
        # a real-dtype s takes the complex arithmetic: the bytes of the same
        # call at s.astype(complex), for one point and for a batch
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        for n in (3, 3 * core.RANGE_MIN):
            norms = RATIONAL_PRIMES[:n]
            for s in (np.float64(1.5), np.array([1.5, 0.75, -0.5, 1.5, 3.0])):
                assert (_bits(log_product(norms, chi, s))
                        == _bits(log_product(norms, chi, s.astype(complex))))


def _both_paths(norms, chi, s):
    """The outcome at s of the one-point path, of the batch path (s and a
    second, regular point) and of the reference: the bits of s's sums, or
    the message of the error raised."""
    def outcome(kernel, points):
        try:
            return _bits(np.asarray(kernel(norms, chi, points))[0])
        except SingularLocalFactorError as exc:
            return str(exc).replace(f"{complex(s)}", "s")

    return (outcome(log_product, np.array([s])),
            outcome(log_product, np.array([s, 3.0 + 1.0j])),
            outcome(lambda *a: [_reference(norms, chi, s)], s))


SINGULAR = "singular local factor at s=s"
NOT_FINITE = "local factor log not finite at s=s"


class TestSingularCheckOnPlanes:
    """The singular check reads z = -w x from float planes: Re(1 - w x) is
    1 + a, and only a factor with |1 + a| below the bound takes numpy's
    complex modulus, the reference's."""

    @pytest.mark.parametrize("n", [1, 3, core.RANGE_CHUNK + 5])
    def test_zero_real_part_with_modulus_one_half(self, n):
        # 1 - (2 + i) 2^{-1} = -0.5i
        one, batch, ref = _both_paths(np.full(n, 2.0), 2 + 1j, 1.0)
        assert one == batch == ref and isinstance(ref, bytes)

    @pytest.mark.parametrize("w", [2.0, 2 + 1e-16j, 2 - 1.5e-15j,
                                   complex(2 - 1e-15, 1e-16)],
                             ids=["zero", "Re-zero", "Re-zero-eps",
                                  "both-small"])
    def test_modulus_below_the_bound_is_singular(self, w):
        # |1 - w / 2| is 0, 5e-17, 7.5e-16 and about 4.5e-16
        norms = np.array([3.0, 2.0, 5.0])
        assert _both_paths(norms, w, 1.0) == (SINGULAR,) * 3

    @pytest.mark.parametrize("w", [2 + 2.5e-15j, complex(2 - 4e-15, 0.0)],
                             ids=["Re-zero", "Re-above"])
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_modulus_just_above_the_bound_is_not(self, w):
        # |1 - w / 2| is 1.25e-15 and 2e-15: the check passes, and the log
        # of the factor overflows the sum instead
        norms = np.array([3.0, 2.0, 5.0])
        assert _both_paths(norms, w, 1.0) == (NOT_FINITE,) * 3

    @pytest.mark.parametrize("norms", [[np.nan, 2.0], [2.0, np.nan],
                                       [np.nan, 3.0, 2.0, np.nan]])
    def test_nan_factor_does_not_hide_a_singular_one(self, norms):
        norms = np.array(norms)
        assert _both_paths(norms, 2.0, 1.0) == (SINGULAR,) * 3
        assert _both_paths(norms, [1.0, 2.0], 1.0) == (SINGULAR,) * 3

    def test_nan_factors_alone_are_not_singular(self):
        one, batch, ref = _both_paths(np.array([np.nan, 3.0]), 2.0, 1.0)
        assert one == batch == ref and isinstance(ref, bytes)

    @pytest.mark.parametrize("chi", [-1.0, [1.0, -1.0],
                                     [1.0, complex(roots_of_unity(3)[1])]])
    @pytest.mark.parametrize("s", [0.5 + 14.1j, 2.0, -0.25 + 0j])
    def test_one_element_and_the_last_twist_in_x(self, chi, s):
        # one norm, and in a batch the last twist's logs overwrite x
        norms = RATIONAL_PRIMES[4:5]
        one, batch, ref = _both_paths(norms, chi, s)
        assert one == batch == ref and isinstance(ref, bytes)
        pts = np.array([s, s, 1.5 + 2.0j])
        assert ([_bits(v) for v in log_product(norms, chi, pts).tolist()]
                == [_outcome(norms, chi, z, _reference) for z in pts])

    @pytest.mark.parametrize("out_is_x", [False, True])
    def test_allocates_nothing_of_the_chunks_length(self, out_is_x):
        m = 50_000
        x = np.exp(-(0.75 + 3.0j) * np.log(RATIONAL_PRIMES[:m]))
        out = x if out_is_x else np.empty(m, complex)
        work = np.empty(m, complex)
        tracemalloc.start()
        try:
            assert core._log_one_minus(x, -1.0, out, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few array headers, far below one byte per factor
        assert peak < m // 8, peak


def _batch(rng, kind, n_points):
    """Points of one batch: a few heights shared by several real parts,
    heights of one point, Im s = +-0 and repeated points."""
    heights = [float(h) for h in rng.uniform(-200, 200, 3)] + [0.0, -0.0]
    pts = [complex(float(rng.uniform(-1, 4)), heights[int(rng.integers(0, 5))])
           if rng.random() < 0.7 else
           complex(float(rng.uniform(-1, 4)), float(rng.uniform(-200, 200)))
           for _ in range(n_points)]
    pts += pts[:int(rng.integers(0, 3))]
    if kind == "real":
        return np.array([p.real for p in pts])
    return np.array(pts)


class TestBatchedKernel:
    """A batch of points gives each point the bits of a lone evaluation."""

    @given(norm_kind=st.sampled_from(["primes", "graph", "strided"]),
           n=st.one_of(st.integers(0, 10), st.integers(0, 50_000)),
           chi_kind=st.sampled_from(["float", "root", "python-complex",
                                     "sign-list", "twist-list"]),
           s_kind=st.sampled_from(["complex", "complex", "real"]),
           n_points=st.integers(1, 12),
           singular=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_each_point_has_the_bits_of_the_reference(
            self, norm_kind, n, chi_kind, s_kind, n_points, singular, seed):
        rng = np.random.default_rng(seed)
        norms = _norms(norm_kind, n, seed)
        chi = _chi(chi_kind, n, seed)
        s = _batch(rng, s_kind, n_points)
        if singular:  # 2^{-s} = 1 or -1 at one point
            s[int(rng.integers(0, len(s)))] = (
                SINGULAR_S[0] if s_kind == "real"
                else SINGULAR_S[int(rng.integers(1, 3))])
        refs = [_outcome(norms, chi, z, _reference) for z in s]
        if "singular" in refs:
            with pytest.raises(SingularLocalFactorError):
                log_product(norms, chi, s)
            return
        sums = log_product(norms, chi, s)
        assert sums.shape == s.shape + np.shape(chi) and sums.dtype == complex
        assert [_bits(v) for v in sums.tolist()] == refs

    def test_scalar_is_a_batch_of_one(self):
        norms = RATIONAL_PRIMES[:1000]
        one = log_product(norms, 1.0, 0.75 + 3.0j)
        assert type(one) is complex
        batch = log_product(norms, 1.0, np.array([0.75 + 3.0j]))
        assert _bits(batch[0]) == _bits(one)
        assert log_product(norms[:0], 1.0, np.array([2.0, 3.0])).tolist() == [0j, 0j]
        assert log_product(norms, [1.0, -1.0], np.array([], complex)).shape == (0, 2)

    @pytest.mark.parametrize("workers", [2, 3, 40])
    @pytest.mark.parametrize("chi_kind", ["float", "root", "twist-list"])
    @pytest.mark.parametrize("s_kind", ["complex", "real"])
    def test_threads_keep_each_points_bits(self, monkeypatch, workers,
                                           chi_kind, s_kind):
        # heights of 5, 4 and 6 points and a lone one, shuffled, so phase-group
        # order is not index order; at these seeds 2 runs cut the 6-point
        # height, 3 runs move one of its points alone into the next run, and
        # 40 runs put every point alone
        rng = np.random.default_rng(workers)
        s = np.array([complex(float(rng.uniform(1.1, 3.0)), h)
                      for h, k in [(14.5, 5), (0.0, 4), (-3.25, 6)]
                      for _ in range(k)] + [2.0 + 77.0j])
        s = s[rng.permutation(len(s))]
        if s_kind == "real":
            s = s.real.copy()
        norms = _norms("primes", 5000, workers)
        chi = _chi(chi_kind, 5000, workers)
        runs = []
        in_threads = core.in_threads

        def recording(work, n, min_len=1):
            def run(lo, hi):
                runs.append((threading.current_thread(), range(lo, hi)))
                work(lo, hi)
            in_threads(run, n, min_len)

        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        monkeypatch.setattr(core, "in_threads", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            sums = log_product(norms, chi, s)
        finally:
            sys.setswitchinterval(interval)
        assert [_bits(v) for v in sums.tolist()] == [
            _outcome(norms, chi, z, _reference) for z in s]
        assert len(runs) == min(workers, len(s)) == len({t for t, _ in runs})
        assert sorted(k for _, ks in runs for k in ks) == list(range(len(s)))

    @pytest.mark.parametrize("workers", [2, 3, 40])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_threads_raise_the_serial_error(self, monkeypatch, workers,
                                            reverse):
        # two singular points in two runs: 0j under the twist 1 and
        # i pi/log 2 under the twist -1; the one the serial loop meets
        # first is named
        s = np.array([2 + 1j, 0j, 3 + 2j, 1.5 + 5j, 2.5 + 7j, SINGULAR_S[2],
                      1.25 + 9j])
        s = s[::-1] if reverse else s
        norms = RATIONAL_PRIMES[:2000]
        errors = []
        for n in (1, workers):
            monkeypatch.setattr(core, "_cpu_count", lambda: n)
            with pytest.raises(SingularLocalFactorError) as exc:
                log_product(norms, [1.0, -1.0], s)
            errors.append(str(exc.value))
        first = SINGULAR_S[2] if reverse else 0j
        assert errors[0] == errors[1] and errors[0].endswith(f"s={first}")

    def test_memory_per_prime_of_one_point(self, monkeypatch):
        # a twisted call on 332k norms, the size of the inert slice of
        # `eval --d 5` at the 1e7 sieve cap: one 16-byte log array per
        # twist, and on each of 2 ranges a chunk's work arrays, in whose
        # buffers the singular check runs; peak at 36 bytes per prime
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        norms = RATIONAL_PRIMES[1::2].copy()
        tracemalloc.start()
        try:
            log_product(norms, [1.0, -1 + 0j], 2 + 1j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 38 * len(norms), peak / len(norms)

    @pytest.mark.parametrize("chi, bound", [(1.0, 106.5),
                                            ([1.0, -1 + 0j], 138.5)],
                             ids=["one-twist", "two-twists"])
    def test_memory_per_prime_of_a_grid_batch(self, monkeypatch, chi, bound):
        # the 63 points q s of the bench `continue --grid` on the d=5 inert
        # slice at 1e6, on 2 runs: the shared logs, and on each run x, work,
        # the phase table and one array per twist past the last, whose logs
        # overwrite x, and nothing else: the singular check and the phase
        # table's complex log p run in those buffers.  Peak at 104.5 and
        # 136.4 bytes per prime, whatever the order the runs allocate in
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        norms = kronecker_system(5).class_slices(1e6)[(1, 2)]
        s = 2 * np.array([complex(a, b) for b in np.linspace(0, 30, 7)
                          for a in np.linspace(0.55, 0.95, 9)])
        tracemalloc.start()
        try:
            log_product(norms, chi, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(norms), peak / len(norms)

    def test_points_outside_the_cexp_identity_stand_alone(self):
        # x = -Re s log p above 709 and an overflowing phase take a lone cexp
        norms = np.array([2.0, 3.0, 1e7])
        s = np.array([-50 + 1j, 2 + 1j, -45 + 1j, 2 + 1e307j, 3 + 1e307j])
        # the caller's errstate holds on every thread of the batch
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_product(norms, -1.0, s)
            refs = [_bits(reference_log_product(norms, -1.0, z)) for z in s]
        assert [_bits(v) for v in got.tolist()] == refs


class TestRangedKernel:
    """One point on a long slice has the bits of the serial pass, however
    its norms are cut into ranges."""

    N = 3 * core.RANGE_MIN + 1001  # no range cut falls on a chunk edge

    @pytest.mark.parametrize("workers", [2, 3, 40])
    @pytest.mark.parametrize("chi_kind", ["float", "root", "twist-list"])
    @pytest.mark.parametrize("s", [2.0 + 14.5j, 1.5], ids=["complex", "real"])
    def test_ranges_keep_the_bits(self, monkeypatch, workers, chi_kind, s):
        norms = _norms("primes", self.N, workers)
        chi = _chi(chi_kind, self.N, workers)
        ranges = []
        in_threads = core.in_threads

        def recording(work, n, min_len=1):
            def run(lo, hi):
                ranges.append((threading.current_thread(), lo, hi))
                work(lo, hi)
            in_threads(run, n, min_len)

        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        monkeypatch.setattr(core, "in_threads", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            got = log_product(norms, chi, s)
        finally:
            sys.setswitchinterval(interval)
        assert _bits(got) == _outcome(norms, chi, s, _reference)
        # 3 minimum ranges fit, each on a thread of its own
        assert len(ranges) == min(workers, 3) == len({t for t, _, _ in ranges})
        cuts = sorted((lo, hi) for _, lo, hi in ranges)
        assert [lo for lo, _ in cuts] == [0] + [hi for _, hi in cuts[:-1]]
        assert cuts[-1][1] == self.N

    @pytest.mark.parametrize("workers", [1, 2, 3, 40])
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_ranges_raise_the_serial_error(self, monkeypatch, workers):
        # the twist 2 is singular at the first norm, in the first range;
        # the twist w sums to +inf from the last norm, in the last range,
        # where w x rounds 2a + a^2 to -1; the serial loop meets the error
        # of the earlier twist first
        norms = RATIONAL_PRIMES[:self.N]
        w = (1 - 1e-10) / float(np.exp(-np.log(norms[-1:]))[0])
        assert _error(norms, w).startswith("local factor log not finite")
        assert _error(norms, 2.0).startswith("singular local factor")
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        for chi, message in (([w, 2.0], "local factor log not finite"),
                             ([2.0, w], "singular local factor"),
                             ([1.0, 2.0], "singular local factor")):
            with pytest.raises(SingularLocalFactorError) as exc:
                log_product(norms, chi, 1.0)
            assert str(exc.value) == f"{message} at s=(1+0j)", chi


def _error(norms, w):
    """The message reference_log_product raises at s = 1."""
    try:
        _reference(norms, w, 1.0)
    except SingularLocalFactorError as exc:
        return str(exc)
    return ""


class TestClassSlices:
    def test_memory_per_prime(self):
        # only the slices stay, 8 bytes per prime (a kept table would add
        # 10, a kept sieve 8); the sieve and the table, built once, peak at
        # about 24
        sys_obj = kronecker_system(5)
        tracemalloc.start()
        try:
            sys_obj.class_slices(1e6)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(sys_obj.primes_up_to(1e6))
        assert retained <= 9 * n and peak <= 32 * n, (retained / n, peak / n)

    @pytest.mark.parametrize("argv", [
        "sieve --d 5 --cutoff 1e4",
        "eval --d 5 --s 2,1 --cutoff 1e4",
        "eval --d 5 --grid 1.5:2.5:3,0:10:4 --cutoff 1e4",
        "continue --d 5 --grid 0.6:0.9:2,0:10:2 --depth 1 --cutoff 1e4",
        "feq-check --d 5 --s 2,1 --cutoff 1e4",
        "feq-check --backend graph --graph-file k4.txt --s 2,1 --cutoff 1e3"])
    def test_one_sieve_and_one_enumeration_per_command(self, monkeypatch,
                                                        tmp_path, capsys, argv):
        # a command asks for its primes at one cutoff: one sieve (none for a
        # graph) and one enumeration, with nothing kept to share
        monkeypatch.chdir(tmp_path)
        (tmp_path / "k4.txt").write_text("4 2 3\n0 1 1\n0 2 0\n0 3 0\n"
                                         "1 2 0\n1 3 0\n2 3 1\n")
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(primes, "primes_up_to",
                            counted("sieve", primes.primes_up_to))
        for cls in (AbelianSystem, GraphZetaSystem):
            monkeypatch.setattr(cls, "_enumerate",
                                counted("enumerate", cls._enumerate))
        assert main(argv.split()) == 0
        capsys.readouterr()
        sieves = [] if "graph" in argv else ["sieve"]
        assert calls == ["enumerate", *sieves]

    @pytest.mark.parametrize("make, X", [
        (lambda: cyclic_system(prime_order_character(23, 11)), 1e4),
        (lambda: ExplicitSystem([2.0, 3.0, 5.0, 7.0], [127, 1, 0, 200],
                                [128, 128, 1, 64], 128), 10)],
        ids=["cyclic-23,11", "explicit-Z128"])
    def test_codes_past_the_class_dtype(self, make, X):
        # (class, order) codes pass 127 at #G = 11, and orders reach 128 at
        # #G = 128, where the classes alone would fit in int8
        sys_obj = make()
        norms, classes, orders = sys_obj.arrays_up_to(X)
        q = sys_obj.group_order
        assert orders.max() == q or q == 11
        slices = sys_obj.class_slices(X)
        assert list(slices) == sorted(slices)
        assert sum(len(v) for v in slices.values()) == len(norms)
        for (c, o), part in slices.items():
            assert 0 <= c < q and o in (1, 64, q)
            assert np.array_equal(part, norms[(classes == c) & (orders == o)])

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_contiguous_and_equal_to_mask_selection(self, name):
        make, X = SYSTEMS[name]
        sys_obj = make()
        norms, classes, orders = sys_obj.arrays_up_to(X)
        q = sys_obj.group_order
        slices = sys_obj.class_slices(X)
        assert sum(len(v) for v in slices.values()) == len(norms)
        for (c, o), part in slices.items():
            assert part.dtype == np.float64 and part.flags.c_contiguous
            assert np.array_equal(part, norms[(classes % q == c) & (orders == o)])
