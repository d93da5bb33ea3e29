"""Ihara zeta, voltage covers, graph L-functions, dual-route partial zeta."""
import cmath
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partialzeta.errors import BudgetExceededError, InvalidConfigError
from partialzeta.graphs import (MAX_COVER_EDGES, MAX_COVER_ORDER,
                                GraphZetaSystem, MultiGraph, VoltageGraph,
                                _det_one_minus_u, build_cover,
                                cover_zeta_inverse, g_series_fraction,
                                graph_L, graph_Ls, graph_singularities_in_s,
                                ihara_det, ihara_edge, parse_graph_file,
                                partial_zeta_series, primitive_cycles)
from partialzeta.series import Cyclotomic, ExactSeries

from graph_oracles import (count_cycles, cycle_voltage, dump_graph_file,
                           is_canonical_primitive,
                           is_canonical_primitive_by_rotations, named_graph,
                           primitive_cycles_by_dfs)
from series_helpers import conjugate_map, derivative


def k4_voltage():
    return VoltageGraph(named_graph("K4"), 3, [1, 0, 0, 0, 0, 1])


def draw_voltage_graph(data, min_degree: int):
    """A random pairing of k >= min_degree stubs per vertex: a k-regular
    multigraph with loops and parallel edges, within the cover bounds, with
    random voltages.  Returns the voltage graph, and its edges and voltages
    as drawn."""
    q_c = data.draw(st.sampled_from(
        [p for p in range(2, MAX_COVER_ORDER + 1)
         if all(p % d for d in range(2, p))]))
    k = data.draw(st.integers(min_degree, 4))
    max_n = 2 * (MAX_COVER_EDGES // (2 * q_c)) // k
    n = data.draw(st.sampled_from(
        [n for n in range(1, max_n + 1) if n * k % 2 == 0]))
    stubs = data.draw(st.permutations([v for v in range(n) for _ in range(k)]))
    edges = list(zip(stubs[::2], stubs[1::2]))
    raw = data.draw(st.lists(st.integers(-50, 50), min_size=len(edges),
                             max_size=len(edges)))
    return VoltageGraph(MultiGraph(n, edges), q_c, raw), edges, raw


def brute_force_closed_nbt_walks(g: MultiGraph, length: int) -> int:
    """Independent DFS oracle for N_m (no edge-matrix powers)."""
    k = 2 * g.m
    count = 0

    def walk(first, e, depth):
        nonlocal count
        if depth == length:
            if g.head[e] == g.tail[first] and first != e ^ 1:
                count += 1
            return
        for f in range(k):
            if g.head[e] == g.tail[f] and f != e ^ 1:
                walk(first, f, depth + 1)

    for e0 in range(k):
        walk(e0, e0, 1)
    return count


def leibniz_det_one_minus_u(mat):
    """Independent oracle: det(I - uM) by the permutation expansion."""
    n = len(mat)
    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        poly = [sign]
        for i in range(n):
            entry = [1 if perm[i] == i else 0, -mat[i][perm[i]]]
            poly = [sum(poly[k] * entry[d - k] for k in range(len(poly))
                        if 0 <= d - k < 2) for d in range(len(poly) + 1)]
        total = [a + b for a, b in zip(total, poly)]
    return total


def int_matrices(entries):
    return st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def cyclotomic_entries(q):
    vecs = st.lists(st.integers(-2, 2), min_size=q - 1, max_size=q - 1)
    return st.one_of(st.just(0), vecs.map(lambda v: Cyclotomic(q, v)))


class TestDetOneMinusU:
    @given(int_matrices(st.integers(-3, 3)))
    @settings(max_examples=150, deadline=None)
    def test_integer_matrices_match_leibniz(self, mat):
        assert _det_one_minus_u(mat) == leibniz_det_one_minus_u(mat)

    def test_zero_diagonal(self):
        # Bareiss needed a pivot swap here; Berkowitz needs none
        mat = [[0, 1, 0], [1, 0, 2], [0, 3, 0]]
        assert _det_one_minus_u(mat) == [1, 0, -7, 0]
        assert _det_one_minus_u(mat) == leibniz_det_one_minus_u(mat)

    @pytest.mark.parametrize("q", [3, 5])
    def test_cyclotomic_matrices_match_leibniz(self, q):
        @given(int_matrices(cyclotomic_entries(q)))
        @settings(max_examples=40, deadline=None)
        def check(mat):
            assert _det_one_minus_u(mat) == leibniz_det_one_minus_u(mat)

        check()


class TestMultiGraph:
    def test_regularity(self):
        assert named_graph("K4").q_g == 2
        assert named_graph("petersen").q_g == 2

    def test_irregular_rejected_by_determinant(self):
        path = MultiGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidConfigError):
            ihara_det(path)

    def test_connectivity(self):
        assert named_graph("cube").is_connected()
        assert not MultiGraph(4, [(0, 1), (2, 3)]).is_connected()

    def test_edge_matrix_row_sums(self):
        g = named_graph("K4")
        t = g.edge_matrix()
        assert (t.sum(axis=1) == g.q_g).all()


class TestIharaDet:
    def test_k4_spectral_factorization(self):
        # adjacency spectrum {3, -1, -1, -1}: det part = prod (1 - lam u + 2u^2)
        oracle = (ExactSeries([1, 0, -1]) ** 2 * ExactSeries([1, -1])
                  * ExactSeries([1, -2]) * ExactSeries([1, 1, 2]) ** 3)
        assert ihara_det(named_graph("K4")) == oracle

    @pytest.mark.parametrize("name", ["K4", "cube", "petersen"])
    def test_bass_identity(self, name):
        g = named_graph(name)
        assert ihara_det(g) == ihara_edge(g)

    def test_constant_term_one(self):
        for name in ("K4", "cube"):
            assert ihara_det(named_graph(name)).coeff(0) == 1

    def test_edge_det_degree(self):
        g = named_graph("K4")
        assert len(ihara_edge(g).coeffs) - 1 == 2 * g.m

    def test_simple_pole_at_inverse_degree(self):
        # (1 - q_g u) divides zeta^{-1} exactly once for K4 (non-bipartite)
        z = ihara_det(named_graph("K4"))
        q1, r1 = np.polynomial.polynomial.polydiv(
            [float(c) for c in z.coeffs], [1.0, -2.0])
        assert max(abs(c) for c in r1) < 1e-12
        _, r2 = np.polynomial.polynomial.polydiv(list(q1), [1.0, -2.0])
        assert max(abs(c) for c in r2) > 1e-6

    def test_log_derivative_traces(self):
        # u d/du log zeta(u) = sum_m N_m u^m up to u^12
        g = named_graph("K4")
        zinv = ihara_det(g).truncate(13)
        zeta = ExactSeries.one(13) / zinv
        logderiv = derivative(zeta) * ExactSeries.one(12) / zeta.truncate(12)
        for m in range(1, 12):
            n_m, _ = count_cycles(g, m)
            assert logderiv.coeff(m - 1) == n_m

    def test_euler_product_ground_truth(self):
        # exp(sum over classes of sum_k u^{k nu}/k) == zeta exactly to u^12
        g = named_graph("K4")
        L = 12
        log_coeffs = [Fraction(0)] * (L + 1)
        for walk in primitive_cycles(g, L):
            nu = len(walk)
            k = 1
            while k * nu <= L:
                log_coeffs[k * nu] += Fraction(1, k)
                k += 1
        # exponentiate the exact series via the derivative recurrence
        zeta = ExactSeries.one(L) / ihara_det(g).truncate(L)
        logz = ExactSeries(log_coeffs, L)
        # compare by differentiating: zeta' = logz' * zeta
        assert derivative(zeta) * ExactSeries.one(L - 1) == \
            (derivative(logz) * zeta).truncate(L - 1)


class TestCycleCounts:
    def test_k4_triangles(self):
        n3, prim3 = count_cycles(named_graph("K4"), 3)
        assert n3 == 24  # 4 triangles x 3 basepoints x 2 orientations
        assert prim3 == 8

    def test_against_brute_force(self):
        g = named_graph("K4")
        for m in range(1, 7):
            n_m, _ = count_cycles(g, m)
            assert n_m == brute_force_closed_nbt_walks(g, m)

    def test_no_short_cycles_simple_graph(self):
        g = named_graph("petersen")  # girth 5
        for m in (1, 2, 3, 4):
            n_m, prim = count_cycles(g, m)
            assert n_m == 0 and prim == 0

    def test_enumeration_matches_moebius_counts(self):
        g = named_graph("cube")
        cycles = primitive_cycles(g, 8)
        by_len = {}
        for w in cycles:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        for m in range(1, 9):
            _, prim = count_cycles(g, m)
            assert by_len.get(m, 0) == prim

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=9).map(tuple))
    @example((0,))
    @example((0, 1, 0, 1))  # abab: a proper power
    @example((0, 0, 1))  # aab: Lyndon
    @example((0, 1, 0))  # aba: not its least rotation
    @example((1, 1, 1))
    @settings(max_examples=300, deadline=None)
    def test_lyndon_test_matches_rotations(self, walk):
        assert is_canonical_primitive(walk) == \
            is_canonical_primitive_by_rotations(walk)

    def test_rotation_invariance_of_voltage(self):
        vg = k4_voltage()
        for walk in primitive_cycles(vg.base, 5):
            v0 = cycle_voltage(vg, walk)
            for i in range(1, len(walk)):
                assert cycle_voltage(vg, walk[i:] + walk[:i]) == v0
            reverse = tuple(e ^ 1 for e in reversed(walk))
            assert cycle_voltage(vg, reverse) == (-v0) % vg.q_c


class TestPrenecklaceEnumeration:
    """`primitive_cycles` grows only prenecklaces; the oracle grows every NBT
    path from its least edge and keeps the Lyndon words by Duval's test."""

    @pytest.mark.parametrize("name", ["K4", "K33", "cube", "prism", "petersen"])
    def test_matches_dfs_oracle_to_length_10(self, name):
        g = named_graph(name)
        assert primitive_cycles(g, 10) == primitive_cycles_by_dfs(g, 10)

    def test_multigraph_with_loops_and_parallel_edges(self):
        g = MultiGraph(2, [(0, 0), (0, 1), (0, 1), (1, 1), (0, 1)])
        assert primitive_cycles(g, 9) == primitive_cycles_by_dfs(g, 9)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dfs_oracle_on_random_multigraphs(self, data):
        g = draw_voltage_graph(data, min_degree=2)[0].base
        max_len = data.draw(st.integers(1, 8))
        assert primitive_cycles(g, max_len) == primitive_cycles_by_dfs(g, max_len)

    @pytest.mark.parametrize("max_len", [-1, 0])
    def test_no_cycles_below_length_one(self, max_len):
        assert primitive_cycles(named_graph("K4"), max_len) == []

    def test_prefix_deeper_than_the_stack_hits_the_budget(self):
        # the triangle's prefixes grow to max_len edges, one Python frame
        # each: past the recursion limit the enumeration is refused as over
        # budget, not with a RecursionError
        triangle = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(BudgetExceededError):
            primitive_cycles(triangle, 3000)


class TestVoltageCover:
    def test_cover_counts(self):
        cover = build_cover(k4_voltage())
        assert cover.n == 12 and cover.m == 18
        assert cover.regularity == 3

    def test_connected_cover(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cover = build_cover(k4_voltage())
        assert cover.is_connected()

    def test_trivial_voltages_disconnected(self):
        vg = VoltageGraph(named_graph("K4"), 3, [0] * 6)
        with pytest.warns(UserWarning):
            cover = build_cover(vg)
        assert not cover.is_connected()

    def test_nonprime_cover_group_rejected(self):
        with pytest.raises(InvalidConfigError):
            VoltageGraph(named_graph("K4"), 4, [0] * 6)


class TestGraphL:
    def test_trivial_character_is_edge_det(self):
        vg = k4_voltage()
        assert graph_L(vg, 0) == ihara_edge(vg.base)

    def test_product_is_cover_zeta(self):
        vg = k4_voltage()
        assert cover_zeta_inverse(vg) == ihara_edge(build_cover(vg))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    @pytest.mark.filterwarnings("ignore:voltage cover is disconnected")
    def test_cover_determinants_of_random_voltage_graphs(self, data):
        # `graph verify` checks the L-product against the cover's vertex
        # determinant; the edge determinant must agree with both
        vg, _, _ = draw_voltage_graph(data, min_degree=2)
        cover = build_cover(vg)
        assert ihara_det(cover) == ihara_edge(cover) == cover_zeta_inverse(vg)

    def test_conjugate_characters(self):
        vg = k4_voltage()
        l1, l2 = graph_L(vg, 1), graph_L(vg, 2)
        for c1, c2 in zip(l1.coeffs, l2.coeffs):
            a = c1 if isinstance(c1, Cyclotomic) else Cyclotomic(3, [c1])
            b = c2 if isinstance(c2, Cyclotomic) else Cyclotomic(3, [c2])
            assert conjugate_map(a, 2) == b

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:voltage cover is disconnected")
    def test_random_voltages_on_named_graphs(self, data):
        # one Berkowitz run per Galois orbit: each conjugated L_j equals a
        # direct run for that j, down to the int or Cyclotomic type of every
        # coefficient; the cycle list does not see the voltages
        g = named_graph(data.draw(st.sampled_from(
            ["K4", "K33", "cube", "prism", "petersen"])))
        q_c = data.draw(st.sampled_from(
            [q for q in (2, 3, 5, 7) if 2 * g.m * q <= MAX_COVER_EDGES]))
        vg = VoltageGraph(g, q_c, data.draw(st.lists(
            st.integers(0, q_c - 1), min_size=g.m, max_size=g.m)))
        max_len = data.draw(st.integers(1, 10))
        assert primitive_cycles(g, max_len) == primitive_cycles_by_dfs(g, max_len)
        ls = graph_Ls(vg)
        assert len(ls) == q_c
        for j, lj in enumerate(ls):
            direct = graph_L(vg, j)
            assert lj == direct
            assert [type(c) for c in lj.coeffs] == [type(c) for c in direct.coeffs]
        assert cover_zeta_inverse(vg) == cover_zeta_inverse(vg, ls) == ihara_det(build_cover(vg))

    def test_rational_characters_have_int_coefficients(self):
        vg = VoltageGraph(named_graph("cube"), 2, [1] + [0] * 11)
        for lj in graph_Ls(vg):
            assert all(type(c) is int for c in lj.coeffs)
        assert all(type(c) is int for c in graph_L(k4_voltage(), 0).coeffs)

    def test_product_is_cover_zeta_cube(self):
        vg = VoltageGraph(named_graph("cube"), 3, [1] + [0] * 11)
        assert cover_zeta_inverse(vg) == ihara_edge(build_cover(vg))

    @pytest.mark.parametrize("vg", [
        k4_voltage(),
        VoltageGraph(named_graph("petersen"), 5, [1, 2] + [0] * 13),
        VoltageGraph(MultiGraph(2, [(0, 0), (0, 1), (1, 1)]), 3, [1, 2, 0]),
    ], ids=["K4/Z3", "petersen/Z5", "loops/Z3"])
    def test_vertex_formula_is_twisted_edge_det(self, vg):
        # L(u, chi_j)^{-1} = det(I - u T_chi), T_chi[e -> f] = chi_j(voltage(f))
        t = vg.base.edge_matrix()
        k = 2 * vg.base.m
        for j in range(1, vg.q_c):
            t_chi = [[Cyclotomic.root_power(vg.q_c, j * vg.oriented_voltages[f])
                      if t[e, f] else 0 for f in range(k)] for e in range(k)]
            edge_side = ExactSeries(_det_one_minus_u(t_chi))
            assert graph_L(vg, j) == edge_side

    def test_cycle_free_base_has_trivial_L(self):
        vg = VoltageGraph(MultiGraph(2, [(0, 1)]), 3, [1])
        for j in range(3):
            assert graph_L(vg, j) == ExactSeries.one()

    def test_integer_cover_polynomial(self):
        prod = cover_zeta_inverse(k4_voltage())
        for c in prod.coeffs:
            assert c.denominator == 1


class TestPartialZeta:
    def test_k4_dual_route(self):
        vg = k4_voltage()
        direct, recursive = partial_zeta_series(vg, 12, g_series_fraction(vg))
        assert direct.coeffs == recursive.coeffs

    def test_trivial_voltage_gives_one(self):
        vg = VoltageGraph(named_graph("K4"), 3, [0] * 6)
        with pytest.warns(UserWarning), pytest.raises(InvalidConfigError):
            partial_zeta_series(vg, 6, g_series_fraction(vg))  # disconnected cover rejected

    def test_constant_coefficient(self):
        vg = k4_voltage()
        direct, recursive = partial_zeta_series(vg, 6, g_series_fraction(vg))
        assert direct.coeff(0) == 1 and recursive.coeff(0) == 1

    @pytest.mark.parametrize("vg", [
        k4_voltage(),
        VoltageGraph(named_graph("cube"), 3, [1] + [0] * 11),
    ], ids=["K4/Z3", "cube/Z3"])
    def test_coefficients_are_ints(self, vg):
        # both routes stay on integers: no Fraction from the divide-by-q_c
        # and never a float
        for series in partial_zeta_series(vg, 14, g_series_fraction(vg)):
            assert len(series.coeffs) == 15
            assert all(type(c) is int for c in series.coeffs)

    def test_direct_matches_manual_product(self):
        vg = k4_voltage()
        direct, _ = partial_zeta_series(vg, 8, g_series_fraction(vg))
        manual = ExactSeries.one(8)
        for walk in primitive_cycles(vg.base, 8):
            if cycle_voltage(vg, walk) != 0:
                manual = manual * (ExactSeries.one(8)
                                   - ExactSeries.monomial(len(walk), 1, 8)
                                   ).inverse()
        assert direct == manual


class TestSingularitiesInS:
    def test_k4_half_line_tower(self):
        # complex roots of 1 + u + 2u^2 have |u| = 1/sqrt(2): Re s = 1/2 tower
        num, den = g_series_fraction(k4_voltage())
        cat = graph_singularities_in_s((num, den), 2, 30.0)
        res = {round(p.location.real, 6) for p in cat.points}
        assert res == {0.5}

    def test_tower_spacing(self):
        num, den = g_series_fraction(k4_voltage())
        cat = graph_singularities_in_s((num, den), 2, 40.0)
        period = 2 * math.pi / math.log(2)
        ims = sorted(p.location.imag for p in cat.points if p.order > 0)
        # each root's tower advances by the period
        base_thetas = sorted(im for im in ims if im < period)
        for im in ims:
            shifted = im % period
            assert any(abs(shifted - t) < 1e-7 or abs(shifted - t + period) < 1e-7
                       for t in base_thetas)

    def test_orders_and_signs(self):
        num, den = g_series_fraction(k4_voltage())
        cat = graph_singularities_in_s((num, den), 2, 10.0)
        assert any(p.order > 0 for p in cat.points)
        assert any(p.order < 0 for p in cat.points)

    def test_boundary_roots_excluded(self):
        # poles of zeta_X at u = 1/2 map to Re s = 1 (outside the open strip)
        zx = ihara_edge(named_graph("K4"))
        cat = graph_singularities_in_s((zx, ExactSeries([1])), 2, 20.0)
        assert all(1e-9 < p.location.real < 1 - 1e-9 for p in cat.points)


class TestGraphSystem:
    def test_norms_and_orders(self):
        vg = k4_voltage()
        sys = GraphZetaSystem(vg)
        ps = sys.primes_up_to(2**5)
        assert all(math.log2(norm).is_integer() for norm in ps.norm.tolist())
        assert set(ps.frob_order.tolist()) <= {1, 3}

    def test_trivial_voltage_all_order_one(self):
        vg = VoltageGraph(named_graph("K4"), 3, [0] * 6)
        sys = GraphZetaSystem(vg)
        assert all(order == 1
                   for order in sys.primes_up_to(2**5).frob_order.tolist())

    def test_count_coeff_overcounts(self):
        vg = k4_voltage()
        sys = GraphZetaSystem(vg)
        c = sys.count_coeff()
        for t in (4.0, 16.0, 64.0):
            assert len(sys.primes_up_to(t)) <= c * t


class TestGraphFileFormat:
    def test_roundtrip(self):
        vg = k4_voltage()
        clone = parse_graph_file(dump_graph_file(vg))
        assert clone.base.edges == vg.base.edges
        assert clone.voltages == vg.voltages
        assert clone.q_c == vg.q_c

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_of_random_voltage_graphs(self, data):
        vg, edges, raw = draw_voltage_graph(data, min_degree=1)
        clone = parse_graph_file(dump_graph_file(vg))
        assert clone.base.n == vg.base.n and clone.base.edges == edges
        assert clone.q_c == vg.q_c
        assert clone.voltages == vg.voltages == [a % vg.q_c for a in raw]

    def test_header_mismatch_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_graph_file("4 9 3\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")

    def test_comments_and_blank_lines(self):
        text = "# a triangle pair\n4 2 3\n\n0 1 1  # voltage edge\n0 2\n0 3\n1 2\n1 3\n2 3 1\n"
        vg = parse_graph_file(text)
        assert vg.base.m == 6 and vg.voltages[0] == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfigError):
            parse_graph_file("  \n")
