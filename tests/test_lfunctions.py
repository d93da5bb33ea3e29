"""Dirichlet characters and L-function continuation, against mpmath oracles."""
import cmath
import math
import random
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from partialzeta import core, lfunctions
from partialzeta.errors import InvalidConfigError, PoleAtOneError
from partialzeta.lfunctions import (DirichletCharacter, dirichlet_L,
                                    fundamental_discriminant, hardy_theta,
                                    hurwitz_zeta, kronecker_character,
                                    kronecker_symbol, log_gamma,
                                    prime_order_character, trivial_character)

from zeta_oracles import (completed_zeta, hardy_Z, reference_dirichlet_L,
                          reference_hurwitz_zeta, riemann_siegel_theta,
                          riemann_zeta)

mpmath.mp.dps = 30


class TestHurwitz:
    @pytest.mark.parametrize("s,a", [(2.0, 1.0), (3.5, 0.25), (0.5, 0.7),
                                     (-1.0, 1.0), (1.5 + 20j, 0.4),
                                     (0.2 + 95j, 1.0)])
    def test_against_mpmath(self, s, a):
        ours = hurwitz_zeta(s, a)
        ref = complex(mpmath.zeta(s, a))
        assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))

    def test_pole_rejected(self):
        with pytest.raises(PoleAtOneError):
            hurwitz_zeta(1.0, 0.5)


def _strip_points(seed: int, n: int = 40) -> np.ndarray:
    """Random s in the critical strip with Im s in [20, 30]: the head length
    N = max(50, int(2|Im s|) + 1) takes several values there (50 below 25,
    one more per 1/2 above), so a batch spans several N groups."""
    rng = random.Random(seed)
    pts = np.array([complex(rng.uniform(0.01, 0.99), rng.uniform(20.0, 30.0))
                    for _ in range(n)] + [0.5 + 24.5j, 0.5 + 24.9999j,
                                          0.5 + 25.0j, 0.5 - 25.6j])
    assert len({max(50, int(2 * abs(s.imag)) + 1) for s in pts}) > 5
    return pts


def _pointwise(fn, pts):
    return np.array([fn(complex(s)) for s in pts])


class TestBatch:
    """Arrays go through the same code as scalars: values agree exactly."""

    def test_hurwitz_batch_equals_pointwise(self):
        pts = _strip_points(1)
        for a in (1.0, 0.2, 0.75):
            batch = hurwitz_zeta(pts, a)
            assert batch.shape == pts.shape
            assert np.array_equal(batch, _pointwise(lambda s: hurwitz_zeta(s, a), pts))

    def test_hurwitz_broadcasts_s_against_a(self):
        pts = _strip_points(2, n=6)
        a = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        grid = hurwitz_zeta(pts, a)
        assert grid.shape == (len(pts), len(a))
        for i, s in enumerate(pts):
            for j, x in enumerate(a):
                assert grid[i, j] == hurwitz_zeta(complex(s), float(x))

    def test_scalar_returns_python_complex(self):
        assert type(hurwitz_zeta(0.5 + 3j, 0.5)) is complex
        assert type(dirichlet_L(0.5 + 3j, kronecker_character(5))) is complex

    def test_hurwitz_array_against_mpmath(self):
        pts = _strip_points(3, n=10)
        ours = hurwitz_zeta(pts, 0.4)
        for s, v in zip(pts, ours):
            ref = complex(mpmath.zeta(complex(s), 0.4))
            assert abs(v - ref) < 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("chi", [kronecker_character(5),
                                     kronecker_character(-1),
                                     prime_order_character(7, 3, generator=3)],
                             ids=["chi5", "chi-4", "cubic7"])
    def test_dirichlet_batch_equals_pointwise(self, chi):
        pts = _strip_points(4)
        batch = dirichlet_L(pts, chi)
        assert np.array_equal(batch, _pointwise(lambda s: dirichlet_L(s, chi), pts))
        grid = pts[:12].reshape(3, 4)
        assert np.array_equal(dirichlet_L(grid, chi), batch[:12].reshape(3, 4))

    def test_pole_in_batch_principal(self):
        with pytest.raises(PoleAtOneError):
            hurwitz_zeta(np.array([2.0, 1.0, 0.5 + 3j]), 0.5)
        with pytest.raises(PoleAtOneError):
            dirichlet_L(np.array([2.0, 1.0, 0.5 + 3j]), trivial_character())

    def test_pole_in_batch_nontrivial_is_finite(self):
        chi = kronecker_character(-1)
        pts = np.array([2.0, 1.0, 0.5 + 3j, 1.0])
        vals = dirichlet_L(pts, chi)
        assert np.array_equal(vals, _pointwise(lambda s: dirichlet_L(s, chi), pts))
        assert abs(vals[1] - math.pi / 4) < 1e-10
        assert vals[3] == vals[1]



def assert_identical(new, ref):
    """Exactly equal, not close: == elementwise, and the same bytes, so the
    sign of a zero counts too."""
    assert type(new) is type(ref)
    assert np.array_equal(new, ref)
    assert np.asarray(new).tobytes() == np.asarray(ref).tobytes()


# Im s on both sides of |Im s| = 24.5, where the head length N leaves 50
_N_EDGE = [24.4999999, 24.5, 24.5000001, -24.5, 25.0]
_HEIGHTS = (st.floats(-100.0, 100.0)
            | st.sampled_from([0.0, -0.0, 100.0, -100.0] + _N_EDGE))
_REAL_PARTS = (st.floats(-40.0, 3.0)
               | st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0, -129.5]))
# a = 1 (zeta), a = r/m for m = 4, 5, 7, 11, and a > 1
_COLUMNS = st.sampled_from([1.0, 0.25, 0.75, 0.2, 0.4, 1 / 7, 6 / 7,
                            3 / 11, 10 / 11, 2.5])


@st.composite
def grid_batches(draw, real_parts=_REAL_PARTS):
    """Points on a few box edges, sharing real parts and heights as the
    scan's batches do, and a few Hurwitz columns."""
    res = draw(st.lists(real_parts, min_size=1, max_size=3))
    ims = draw(st.lists(_HEIGHTS, min_size=1, max_size=4))
    pts = np.array([complex(x, y) for x in res for y in ims])
    assume(not np.any(np.abs(pts - 1.0) < 1e-14))
    cols = np.array(draw(st.lists(_COLUMNS, min_size=1, max_size=5,
                                  unique=True)))
    return pts, cols


class TestFactoredExponentials:
    """`hurwitz_zeta` splits each exp(-s log k) into exp(-Re s log k) and
    exp(-i Im s log k), shared across points; the reference takes one
    complex exp per term.  Both must give the same bits."""

    @given(grid_batches())
    @settings(max_examples=150, deadline=None)
    def test_grid_batch_matches_reference(self, batch):
        pts, cols = batch
        assert_identical(hurwitz_zeta(pts, cols),
                         reference_hurwitz_zeta(pts[:, None], cols))
        assert_identical(hurwitz_zeta(pts, cols[0]),
                         reference_hurwitz_zeta(pts, cols[0]))
        s, a = complex(pts[-1]), float(cols[-1])
        assert_identical(hurwitz_zeta(s, a), reference_hurwitz_zeta(s, a))

    @pytest.mark.parametrize("s", [-129.5 + 100j, -129.5 - 100j, -129.5,
                                   0.5 + 100j, 3.0 - 100j, 0.5 + 24.5j])
    def test_edges_of_the_exact_domain(self, s):
        cols = np.array([1 / 11, 0.5, 1.0, 2.5])
        new = hurwitz_zeta(np.array([s]), cols)
        assert np.all(np.isfinite(new))
        assert_identical(new, reference_hurwitz_zeta(np.array([s])[:, None],
                                                     cols))

    def test_shapes(self):
        # np.shape(s) + np.shape(a), each entry zeta at one point and column
        pts = _strip_points(5, n=8)
        cols = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        grid = pts.reshape(3, 4)
        for s, a in ((grid, 0.4), (grid, cols), (pts, cols),
                     (complex(pts[0]), cols), (complex(pts[0]), 0.4)):
            new = hurwitz_zeta(s, a)
            assert np.shape(new) == np.shape(s) + np.shape(a)
            assert_identical(new, reference_hurwitz_zeta(
                np.asarray(s)[..., None] if np.ndim(a) else s, a))

    def test_outer_product(self):
        pts = np.array([0.5 + 14j, 0.3 - 2j, 0.5 + 30j, 2.0, -1.5 + 0.5j,
                        0.5 + 14j, 0.9 + 99j])
        cols = np.array([1 / 7, 0.5, 1.0])
        table = hurwitz_zeta(pts, cols)
        assert table.shape == (7, 3)
        assert_identical(table, reference_hurwitz_zeta(pts[:, None], cols))
        grid = _strip_points(6, n=8).reshape(3, 4)
        cols = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        table = hurwitz_zeta(grid, cols)
        assert table.shape == (3, 4, 5)
        assert_identical(table, reference_hurwitz_zeta(grid[..., None], cols))

    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, -2.0]),
                              st.sampled_from([0.0, -0.0, 3.0, -3.0])),
                    min_size=2, max_size=8),
           st.lists(_COLUMNS, min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_signed_zeros_in_one_batch(self, parts, cols):
        # the distinct Re s and Im s are float keys, on which 0.0 == -0.0:
        # one batch mixing the two must still give the reference's bits
        pts = np.array([complex(x, y) for x, y in parts])
        cols = np.array(cols)
        assert_identical(hurwitz_zeta(pts, cols),
                         reference_hurwitz_zeta(pts[:, None], cols))


_CHARACTERS = {
    "order2-mod5": kronecker_character(5),
    "order2-mod4": kronecker_character(-1),
    "order2-mod12": kronecker_character(3),
    "order3-mod7": prime_order_character(7, 3, generator=3),
    "order3-mod13": prime_order_character(13, 3),
    "order5-mod11": prime_order_character(11, 5),
}


def _powers(chi):
    return [trivial_character()] + [chi.power(j) for j in range(1, chi.order)]


class TestSharedColumns:
    """`dirichlet_L` over a sequence of characters makes one Hurwitz call
    over the union of their columns; each L keeps its own summation order,
    m^{-s} factor and pole handling."""

    @pytest.mark.parametrize("name", sorted(_CHARACTERS))
    # m^{-s} overflows long before Re s = -129.5
    @given(batch=grid_batches(st.floats(-40.0, 3.0)
                              | st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0])))
    @settings(max_examples=25, deadline=None)
    def test_sequence_matches_per_character_reference(self, name, batch):
        pts, _ = batch
        chis = _powers(_CHARACTERS[name])
        rows = dirichlet_L(pts, chis)
        assert rows.shape == (len(chis),) + pts.shape
        for row, chi in zip(rows, chis):
            assert_identical(row, reference_dirichlet_L(pts, chi))
            assert_identical(dirichlet_L(pts, chi), reference_dirichlet_L(pts, chi))

    @pytest.mark.parametrize("name", sorted(_CHARACTERS))
    def test_scalar_and_grid_shapes(self, name):
        chi = _CHARACTERS[name]
        pts = _strip_points(6, n=8)
        s = complex(pts[0])
        assert_identical(dirichlet_L(s, chi), reference_dirichlet_L(s, chi))
        grid = pts.reshape(3, 4)
        rows = dirichlet_L(grid, [chi, chi.power(2)])
        assert rows.shape == (2, 3, 4)
        assert_identical(rows[1], reference_dirichlet_L(grid, chi.power(2)))
        pair = dirichlet_L(s, [chi, chi.power(2)])
        assert pair.shape == (2,)
        assert_identical(complex(pair[0]), reference_dirichlet_L(s, chi))

    @pytest.mark.parametrize("name", sorted(_CHARACTERS))
    def test_finite_value_at_one_unchanged(self, name):
        chis = _powers(_CHARACTERS[name])[1:]
        pts = np.array([1.0, 0.5 + 3j, 1.0, 2.0])
        rows = dirichlet_L(pts, chis)
        for row, chi in zip(rows, chis):
            assert_identical(row, reference_dirichlet_L(pts, chi))
            assert_identical(dirichlet_L(1.0, chi),
                             reference_dirichlet_L(1.0, chi))

    def test_pole_at_one_with_the_principal_character(self):
        chis = _powers(_CHARACTERS["order3-mod7"])
        for s in (1.0, np.array([2.0, 1.0])):
            with pytest.raises(PoleAtOneError):
                dirichlet_L(s, chis)
            with pytest.raises(PoleAtOneError):
                reference_dirichlet_L(s, chis[0])


class TestHurwitzBlocks:
    def test_block_memory_flat_in_height(self, monkeypatch):
        # dirichlet_L cuts its Hurwitz calls by head terms, and a pair sums
        # N = 199 of them near Im s = 99 against 50 near Im s = 5: with
        # blocks of (point, column) pairs the peak there was about 4 times
        monkeypatch.setattr(lfunctions, "_HURWITZ_BLOCK", 20_000)
        chi = kronecker_character(101)  # 100 columns
        peaks = []
        for t in (5.0, 99.0):
            s = 0.5 + 1j * (t + np.linspace(0.0, 0.5, 32))
            tracemalloc.start()
            dirichlet_L(s, chi)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    def test_memory_flat_in_batch_size(self):
        # each piece of _HURWITZ_POINTS points sums its residues before the
        # next: ten pieces hold no more Hurwitz values than one, where a
        # batch-wide points x columns array grew by 2,304 x 100 values
        chi = kronecker_character(101)  # 100 columns
        rng = np.random.default_rng(2560)
        peaks = []
        for n in (256, 2560):
            s = rng.uniform(0.05, 0.95, n) + 1j * rng.uniform(-20.0, 20.0, n)
            tracemalloc.start()
            dirichlet_L(s, chi)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        piece = lfunctions._HURWITZ_POINTS * 100 * 16  # one piece's values
        assert peaks[1] - peaks[0] < piece, peaks

    def test_values_do_not_depend_on_the_blocks(self, monkeypatch):
        s = 0.5 + 1j * np.array([3.0, 99.0, 40.0, 0.5, 99.5, 7.0])
        chi = kronecker_character(101)
        whole = dirichlet_L(s, chi)
        for block, points in ((5_000, 256), (20_000, 256), (60_000, 256),
                              (60_000, 4), (20_000, 2), (5_000, 1)):
            monkeypatch.setattr(lfunctions, "_HURWITZ_BLOCK", block)
            monkeypatch.setattr(lfunctions, "_HURWITZ_POINTS", points)
            assert_identical(dirichlet_L(s, chi), whole)

    def test_calls_of_at_most_256_points(self, monkeypatch):
        # below Im s = 24.5 every pair sums N = 50 head terms, far below
        # _HURWITZ_BLOCK at 4 columns: only the point cap cuts the batch
        rng = np.random.default_rng(600)
        s = rng.uniform(0.05, 0.95, 600) + 1j * rng.uniform(-24.0, 24.0, 600)
        chi = kronecker_character(5)
        sizes = []
        hurwitz = lfunctions.hurwitz_zeta

        def counted(s, a):
            sizes.append(len(s))
            return hurwitz(s, a)

        monkeypatch.setattr(lfunctions, "hurwitz_zeta", counted)
        whole = dirichlet_L(s, chi)
        assert sizes == [256, 256, 88]
        pieces = [dirichlet_L(s[lo:hi], chi)
                  for lo, hi in ((0, 256), (256, 512), (512, 600))]
        assert sizes == [256, 256, 88] * 2
        assert_identical(whole, np.concatenate(pieces))

    def test_empty_batch(self, monkeypatch):
        # no Hurwitz call at all, as for a factor with no zero to refine
        monkeypatch.setattr(lfunctions, "hurwitz_zeta", None)
        chi = kronecker_character(5)
        empty = np.array([], dtype=complex)
        assert dirichlet_L(empty, chi).shape == (0,)
        assert dirichlet_L(empty, [chi, trivial_character()]).shape == (2, 0)


class TestLibmPrecondition:
    """The factored exponentials of the scan and of the Euler-product
    kernel are exact only because glibc's cexp forms exp(x + iy) as
    (exp(x) cos y, exp(x) sin y) from one sincos, for x <= 709.  A failure
    here points at the C library or numpy's complex exp on this platform,
    not at the scan or the kernel."""

    def test_cexp_is_real_exp_times_sincos(self):
        # the kernel's tested domain: Re s in [-1, 4] and |Im s| <= 200
        # times log p <= log 1e7 < 16.2; the scan's lies inside it
        rng = np.random.default_rng(20261018)
        x = np.concatenate([rng.uniform(-700.0, 700.0, 100_000),
                            [0.0, -0.0, 0.0, -0.0, 700.0, -700.0]])
        y = np.concatenate([rng.uniform(-3300.0, 3300.0, 100_000),
                            [0.0, -0.0, -0.0, 0.0, 5e-324, -3300.0]])

        def cexp(re, im):  # parts set directly: 1j * y would drop y's -0
            arg = np.empty(len(x), dtype=complex)
            arg.real, arg.imag = re, im
            return np.exp(arg)

        z = cexp(x, y)
        E = cexp(x, 0.0).real
        cis = cexp(0.0, y)
        # bytes, so that signed zeros count
        assert z.real.tobytes() == (E * cis.real).tobytes()
        assert z.imag.tobytes() == (E * cis.imag).tobytes()


class TestPairwiseSumPrecondition:
    """The Euler-product kernel sums a class slice leaf by leaf and adds the
    leaves' sums up numpy's pairwise tree (`core._leaves`,
    `core._tree_sum`): np.sum over the whole slice bit for bit only while
    numpy's complex sum adds 0 to that tree.  A failure here points at
    numpy's summation on this platform, not at the kernel, and the kernel
    pins would move with it."""

    @given(n=st.one_of(st.integers(1, 300), st.integers(1, 400_000)),
           leaf=st.one_of(st.sampled_from([64, 65, 2**15]),
                          st.integers(64, 40_000)),
           kind=st.sampled_from(["finite", "finite", "special", "zeros"]),
           rows=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_leaf_sums_add_up_to_np_sum(self, n, leaf, kind, rows, seed):
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2, rows, n)) * 10.0 ** rng.integers(
            -12, 12, (2, rows, n))
        if kind == "zeros":  # +-0 only, every entry -0 in a third of cases
            plus = rng.random((2, rows, n)) < (0.0 if seed % 3 == 0 else 0.1)
            parts = np.where(plus, 0.0, -0.0)
        elif kind == "special":  # a few +-0, +-inf and NaN entries
            at = rng.integers(0, n, (2, rows, 4))
            for p, r in np.ndindex(2, rows):
                parts[p, r, at[p, r]] = rng.choice(
                    [0.0, -0.0, np.inf, -np.inf, np.nan], 4)
        a = np.empty((rows, n), complex)
        a.real, a.imag = parts
        with mock.patch.object(core, "LEAF", leaf), \
                np.errstate(invalid="ignore", over="ignore"):
            leaves = core._leaves(n)
            assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
            assert leaves[-1][1] == n
            assert all(0 < hi - lo <= leaf for lo, hi in leaves)
            for row in a:
                got = core._tree_sum([np.sum(row[lo:hi]) for lo, hi in leaves], n)
                assert got.tobytes() == np.sum(row).tobytes(), (
                    "numpy's np.sum no longer follows the pairwise tree of "
                    "core._leaves")
            # the row sums' NaNs may differ in sign (seen at n = 164, leaf
            # 64); the kernel takes 1-d sums only, so NaNs are compared as NaN
            got = core._tree_sum([a[:, lo:hi].sum(axis=1) for lo, hi in leaves], n)
            assert _nan_bytes(got) == _nan_bytes(a.sum(axis=1)), (
                "numpy's row sums no longer follow the pairwise tree of "
                "core._leaves")


def _nan_bytes(z):
    """The bytes of complex z with every NaN part made the same NaN."""
    v = np.asarray(z, complex).view(float)
    return np.where(np.isnan(v), np.nan, v).tobytes()


class TestZetaValues:
    def test_zeta2(self):
        assert abs(riemann_zeta(2.0) - math.pi**2 / 6) < 1e-10

    def test_zeta_minus_one(self):
        assert abs(riemann_zeta(-1.0) - (-1.0 / 12.0)) < 1e-10

    def test_zeta_zero(self):
        assert abs(riemann_zeta(0.0) - (-0.5)) < 1e-10

    def test_xi_functional_equation(self):
        rng = random.Random(20240817)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-30, 30))
            xi1, xi2 = completed_zeta(s), completed_zeta(1 - s)
            assert abs(xi1 - xi2) < 1e-8 * max(1.0, abs(xi1))


class TestKronecker:
    def test_symbol_matches_legendre(self):
        # Legendre symbols mod 7 by direct square search
        squares = {pow(a, 2, 7) for a in range(1, 7)}
        for a in range(1, 7):
            expected = 1 if a in squares else -1
            assert kronecker_symbol(a, 7) == expected

    def test_multiplicativity(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, n = rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 40)
            assert (kronecker_symbol(a * b, n)
                    == kronecker_symbol(a, n) * kronecker_symbol(b, n))

    def test_fundamental_discriminant(self):
        assert fundamental_discriminant(5) == 5
        assert fundamental_discriminant(-1) == -4
        assert fundamental_discriminant(3) == 12

    def test_non_squarefree_rejected(self):
        with pytest.raises(InvalidConfigError):
            fundamental_discriminant(12)
        with pytest.raises(InvalidConfigError):
            fundamental_discriminant(1)


class TestCharacters:
    def test_cubic_mod7_residues(self):
        # frozen oracle: cubic residues mod 7 are {1, 6}
        chi = prime_order_character(7, 3, generator=3)
        trivial_on = sorted(a for a in range(1, 7) if chi.exponent(a) == 0)
        assert trivial_on == [1, 6]

    def test_orthogonality(self):
        for chi in (kronecker_character(5), prime_order_character(7, 3),
                    kronecker_character(-1)):
            total = sum(chi.value(a) for a in range(chi.modulus))
            assert abs(total) < 1e-12

    def test_kronecker_character_matches_symbol(self):
        chi = kronecker_character(5)
        for p in (2, 3, 7, 11, 13):
            assert chi.value(p) == pytest.approx(kronecker_symbol(5, p))

    def test_power_and_parity(self):
        chi = prime_order_character(7, 3, generator=3)
        assert chi.power(3).is_trivial
        assert chi.value(-1) == 1  # cubic character is even
        assert kronecker_character(-1).value(-1) == pytest.approx(-1)

    def test_real_and_imaginary_values_exact(self):
        # values come from the roots-of-unity table the Euler-product kernel
        # uses, where +-1 and +-i are exact
        assert kronecker_character(5).value(2) == -1
        assert kronecker_character(5).value(2).imag == 0.0
        chi4 = DirichletCharacter(5, 4, {1: 0, 2: 1, 3: 3, 4: 2})
        assert [chi4.value(a) for a in range(1, 5)] == [1, 1j, -1j, -1]

    def test_nonprime_order_divisibility_guard(self):
        with pytest.raises(InvalidConfigError):
            prime_order_character(7, 5)


class TestDirichletL:
    def test_L_chi_minus4_at_1(self):
        # Leibniz: 1 - 1/3 + 1/5 - ... = pi/4
        chi = kronecker_character(-1)
        assert abs(dirichlet_L(1.0, chi) - math.pi / 4) < 1e-10

    def test_L_chi5_at_2_against_mpmath(self):
        chi = kronecker_character(5)
        ref = complex(sum(mpmath.mpf(kronecker_symbol(5, n)) / n**2
                          for n in range(1, 20000)))
        assert abs(dirichlet_L(2.0, chi) - ref) < 1e-6

    def test_cubic_L_against_hurwitz_oracle(self):
        chi = prime_order_character(7, 3, generator=3)
        s = 1.3 + 4.0j
        ref = mpmath.mpc(0)
        for a in range(1, 7):
            ref += complex(chi.value(a)) * mpmath.zeta(s, mpmath.mpf(a) / 7)
        ref *= mpmath.power(7, -s)
        assert abs(dirichlet_L(s, chi) - complex(ref)) < 1e-10

    def test_real_character_gives_real_value(self):
        assert dirichlet_L(1.0, kronecker_character(5)).imag == 0.0

    def test_pole_for_trivial(self):
        with pytest.raises(PoleAtOneError):
            dirichlet_L(1.0, trivial_character())

    def test_nontrivial_finite_at_1(self):
        chi = kronecker_character(5)
        v1 = dirichlet_L(1.0, chi)
        v2 = dirichlet_L(1.0 + 1e-7, chi)
        assert abs(v1 - v2) < 1e-5

    def test_euler_product_consistency(self):
        # Re s = 2: truncated Euler product over actual primes matches
        from partialzeta.primes import primes_up_to

        chi = kronecker_character(5)
        s = 2.0
        prod = 1.0
        for p in primes_up_to(10**5):
            v = chi.value(int(p))
            if v:
                prod *= 1.0 / (1.0 - v * float(p)**-s)
        assert abs(prod - dirichlet_L(s, chi)) < 1e-9


class TestHardyZ:
    def test_real_valued(self):
        for t in (5.0, 14.0, 21.0):
            assert isinstance(hardy_Z(t), float)

    def test_sign_change_at_first_zero(self):
        assert hardy_Z(14.0) * hardy_Z(14.2) < 0

    def test_matches_abs_zeta(self):
        t = 17.5
        assert abs(abs(hardy_Z(t)) - abs(riemann_zeta(0.5 + 1j * t))) < 1e-10

    def test_theta_against_mpmath(self):
        t = 25.0
        ref = float(mpmath.siegeltheta(t))
        assert abs(riemann_siegel_theta(t) - ref) < 1e-9


class TestHardyTheta:
    """The rotation e^{i theta(t, chi)} that makes L(1/2 + it, chi) real,
    from a Stirling-series log Gamma and the Gauss-sum root number."""

    def test_log_gamma_against_scipy(self):
        rng = np.random.default_rng(7)
        z = (rng.uniform(1e-3, 5.0, 4000)
             + 1j * rng.uniform(-120.0, 120.0, 4000))
        z[:3] = [0.25 + 0.025j, 0.75, 1.0]  # theta's least |z|, and real z
        ref = loggamma(z)
        assert np.all(np.abs(log_gamma(z) - ref)
                      <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_trivial_theta_is_riemann_siegel(self):
        t = np.linspace(0.05, 100.0, 2000)
        ours = hardy_theta(t, trivial_character())
        ref = np.array([riemann_siegel_theta(x) for x in t.tolist()])
        assert np.max(np.abs(ours - ref)) <= 1e-12

    @pytest.mark.parametrize("chi", [
        trivial_character(), kronecker_character(5),
        *_powers(prime_order_character(7, 3, generator=3))[1:],
        *_powers(prime_order_character(11, 5))[1:]], ids=repr)
    def test_Z_is_real(self, chi):
        # every factor of d = 5, 7,3,3 and 11,5; relative to max(1, |L|),
        # since near a zero |L| falls below the L-values' own error
        t = np.linspace(1.0, 100.0, 2000)
        L = dirichlet_L(0.5 + 1j * t, chi)
        Z = np.exp(1j * hardy_theta(t, chi)) * L
        assert np.all(np.abs(Z.imag) <= 1e-12 * np.maximum(1.0, np.abs(L)))

    def test_imprimitive_character_refused(self):
        # the principal character mod 5: |tau| = 1, not sqrt 5
        chi = DirichletCharacter(5, 2, {1: 0, 2: 0, 3: 0, 4: 0})
        with pytest.raises(InvalidConfigError, match="not primitive"):
            hardy_theta(1.0, chi)
