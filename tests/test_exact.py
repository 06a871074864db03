"""Exact evaluators: rank sums, random cluster, Tutte, counts, gadget sums."""

from __future__ import annotations

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from rankpoly import gf2
from rankpoly.exact import (
    _edge_components,
    EvalResult,
    biclique_gadget_closed_forms,
    bipartite_rank_size_counts,
    component_size_counts,
    count_bis,
    count_bis_oracle,
    count_independent_sets,
    count_matchings,
    count_pbis,
    count_pbis_auto,
    count_pbis_oracle,
    count_pbis_twins,
    count_perfect_matchings,
    evaluate_table,
    fan_gadget_closed_forms,
    graph_rank_size_counts,
    purity_split_sums,
    r2,
    r2_prime,
    r2_prime_via_purity,
    random_cluster,
    tutte,
)
from rankpoly.graphs import (
    BipartiteGraph,
    Graph,
    LimitExceededError,
    bipartition_of,
    biclique_gadget,
    cloud_blowup,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    fan_gadget,
    path_graph,
    star_graph,
    two_stretch,
)
from conftest import (
    independent_sets_by_enumeration,
    is_matching,
    matchings_by_enumeration,
    random_bipartite,
    random_graph,
    random_tree,
)


class TestRankSumBipartite:
    def test_k2_half_one(self):
        b = bipartition_of(path_graph(2))
        assert r2_prime(b, F(1, 2), F(1)).value == F(3, 2)

    def test_c4_half_one_with_table(self):
        b = bipartition_of(cycle_graph(4))
        res = r2_prime(b, F(1, 2), F(1))
        assert res.value == 7
        # counts by (rank, size): enumeration of all 16 subsets by hand
        assert res.terms == {
            (0, 0): 1,
            (1, 1): 4,
            (1, 2): 4,
            (2, 2): 2,
            (2, 3): 4,
            (1, 4): 1,
        }

    def test_lam_one_collapses_to_subset_count(self, rng):
        for _ in range(15):
            b = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4))
            mu = F(rng.randint(-3, 3), rng.randint(1, 4))
            assert r2_prime(b, F(1), mu).value == (1 + mu) ** b.m

    def test_lam_zero_is_one(self, rng):
        b = random_bipartite(rng, 3, 3)
        assert r2_prime(b, F(0), F(5)).value == 1

    def test_limit_enforced(self):
        b = complete_bipartite(3, 4)
        with pytest.raises(LimitExceededError):
            r2_prime(b, F(1, 2), F(1), max_edges=10)

    def test_terms_reusable_at_new_point(self, rng):
        b = random_bipartite(rng, 3, 3)
        res = r2_prime(b, F(1, 2), F(1))
        counts = [[0] * (b.m + 1) for _ in range(4)]
        for (r, s), c in res.terms.items():
            counts[r][s] = c
        for lam, mu in ((F(2), F(3)), (F(1, 3), F(-1))):
            assert evaluate_table(counts, lam, mu) == r2_prime(b, lam, mu).value


class TestRankSumGeneral:
    def test_square_relation(self, rng):
        for _ in range(10):
            b = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4))
            for lam in (F(1, 2), F(2), F(3)):
                assert r2(b.graph, lam, F(1)).value == r2_prime(b, lam * lam, F(1)).value

    def test_lam_one(self):
        g = complete_graph(4)
        assert r2(g, F(1), F(2)).value == F(3) ** 6

    def test_triangle_lam_zero(self):
        assert r2(complete_graph(3), F(0), F(7)).value == 1


class TestRandomCluster:
    def test_k2(self):
        q, mu = F(3), F(5)
        assert random_cluster(path_graph(2), q, mu).value == q**2 + q * mu

    def test_triangle(self):
        q, mu = F(2), F(3)
        expect = q**3 + 3 * q**2 * mu + 3 * q * mu**2 + q * mu**3
        assert random_cluster(complete_graph(3), q, mu).value == expect

    def test_edgeless(self):
        assert random_cluster(Graph(5, ()), F(7), F(1)).value == F(7) ** 5


class TestTutte:
    def test_single_edge_is_x(self):
        for x, y in ((F(5), F(7)), (F(-3), F(2)), (F(1, 2), F(1, 3))):
            assert tutte(path_graph(2), x, y) == x

    def test_t22_counts_subsets(self):
        assert tutte(complete_graph(3), F(2), F(2)) == 8
        assert tutte(cycle_graph(5), F(2), F(2)) == 32

    def test_random_cluster_change_of_variables(self, rng):
        points = ((F(2), F(3)), (F(3), F(2)), (F(0), F(-2)))
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 5), 0.6)
            kappa_full, _ = components(g, g.full_subset())
            for x, y in points:
                lhs = tutte(g, x, y) * (x - 1) ** kappa_full * (y - 1) ** g.n
                rhs = random_cluster(g, (x - 1) * (y - 1), y - 1).value
                assert lhs == rhs


class TestCountBis:
    def test_k2(self):
        assert count_bis(bipartition_of(path_graph(2))) == 3

    def test_p3_both_sides(self):
        b = bipartition_of(path_graph(3))
        assert r2_prime(b, F(1, 2), F(1)).value == F(5, 2)
        assert count_bis(b) == 5

    def test_c4(self):
        assert count_bis(bipartition_of(cycle_graph(4))) == 7

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            b = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert count_bis(b) == independent_sets_by_enumeration(b.graph)

    def test_oracle_matches_enumeration_general(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            assert count_independent_sets(g) == independent_sets_by_enumeration(g)


class TestCountPbis:
    def test_eta_one_counts_forced_labelings(self):
        g = Graph(4, ((0, 1), (1, 2)))  # one isolated vertex
        b = BipartiteGraph(g, (0, 2), (1, 3))
        assert count_pbis(b, F(1)) == 2 ** (g.m + 1)

    def test_eta_zero(self, rng):
        b = random_bipartite(rng, 3, 2)
        assert count_pbis(b, F(0)) == 2**b.n

    def test_eta_minus_one_vs_bis(self, rng):
        for _ in range(10):
            b = random_bipartite(rng, 3, 3)
            assert count_pbis(b, F(-1)) == 2**b.m * count_bis(b)

    def test_identity_against_labeling_oracle(self, rng):
        etas = (F(-1), F(-1, 2), F(1, 2), F(1), F(2), F(7, 9))
        for _ in range(10):
            b = random_bipartite(rng, rng.randint(1, 3), rng.randint(1, 3))
            for eta in etas:
                assert count_pbis(b, eta) == count_pbis_oracle(b, eta)

    def test_twins_agree_with_oracle(self, rng):
        for _ in range(10):
            b = random_bipartite(rng, 3, 3)
            for eta in (F(1, 2), F(3), F(-2)):
                assert count_pbis_twins(b, eta) == count_pbis_oracle(b, eta)

    def test_twins_handle_clouds_beyond_other_routes(self):
        blown = cloud_blowup(path_graph(2), 13, 1)  # 38 vertices, 312 edges
        eta = F(7, 9)
        value = count_pbis_auto(blown, eta)
        assert value == count_pbis_twins(blown, eta)
        assert value > 0


class TestCountMatchings:
    def test_triangle(self):
        assert count_matchings(complete_graph(3)) == 4
        assert count_perfect_matchings(complete_graph(3)) == 0

    def test_c4(self):
        assert count_matchings(cycle_graph(4)) == 7
        assert count_perfect_matchings(cycle_graph(4)) == 2

    def test_edgeless(self):
        assert count_matchings(Graph(3, ())) == 1
        assert count_perfect_matchings(Graph(3, ())) == 0
        assert count_perfect_matchings(Graph(0, ())) == 1

    def test_against_enumeration(self, rng):
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 5), 0.6)
            all_matchings = matchings_by_enumeration(g)
            assert count_matchings(g) == len(all_matchings)
            perfect = [
                s for s in all_matchings if 2 * bin(s).count("1") == g.n
            ]
            assert count_perfect_matchings(g) == len(perfect)


class TestPuritySplitSums:
    def test_fan_k0_by_hand(self):
        ups, root = fan_gadget(0)
        lam, mu = F(1, 3), F(2)
        zp, zm = purity_split_sums(ups, root, lam, mu)
        assert lam * zp == mu + mu * mu + 1 / lam
        assert zm == lam ** -1 * mu  # the single subset {root edge}

    def test_fan_closed_forms(self):
        for k in range(5):
            for lam in (F(1, 3), F(2, 5)):
                for mu in (F(1), F(-2), F(3)):
                    ups, root = fan_gadget(k)
                    zp, zm = purity_split_sums(ups, root, lam, mu)
                    x, y = fan_gadget_closed_forms(k, lam, mu)
                    assert lam * zp == x
                    assert lam * zp + zm == y

    def test_biclique_closed_forms(self):
        for k in (1, 2):
            for lam in (F(1, 3), F(2, 5)):
                ups, root = biclique_gadget(k)
                zp, zm = purity_split_sums(ups, root, lam, F(-2))
                x, y = biclique_gadget_closed_forms(k, lam)
                assert lam * zp == x
                assert lam * zp + zm == y

    def test_rejects_high_w_degree(self):
        b = complete_bipartite(3, 2)  # W degrees 3
        with pytest.raises(ValueError, match="degree"):
            purity_split_sums(b, 0, F(1, 2), F(1))

    def test_rejects_lam_zero(self):
        ups, root = fan_gadget(1)
        with pytest.raises(ValueError, match="nonzero"):
            purity_split_sums(ups, root, F(0), F(1))


class TestPurityEvaluation:
    def test_path3_by_hand(self):
        b = bipartition_of(path_graph(3))
        lam, mu = F(1, 3), F(5)
        expect = 1 + 2 * lam * mu + lam * mu * mu
        assert r2_prime_via_purity(b, lam, mu).value == expect
        assert r2_prime(b, lam, mu).value == expect

    def test_stretched_triangle_both_routes(self):
        b = two_stretch(complete_graph(3))
        for lam, mu in ((F(1, 2), F(1)), (F(2), F(-3))):
            assert r2_prime_via_purity(b, lam, mu).value == r2_prime(b, lam, mu).value

    def test_hundred_random_w2_graphs_table_agreement(self, rng):
        done = 0
        while done < 100:
            h = random_tree(rng, rng.randint(2, 5))
            keep = tuple(e for e in h.edges if rng.random() < 0.8)
            b = two_stretch(Graph(h.n, keep))
            lam, mu = F(rng.randint(1, 5), rng.randint(1, 5)), F(rng.randint(-3, 3))
            a = r2_prime_via_purity(b, lam, mu)
            c = r2_prime(b, lam, mu)
            assert a.value == c.value
            assert a.terms == c.terms
            done += 1


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**16 - 1))
@settings(max_examples=60, deadline=None)
def test_rank_table_row_sums_are_binomials(a, b, mask):
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    edges = tuple(p for i, p in enumerate(pairs) if (mask >> i) & 1)
    bip = BipartiteGraph(Graph(a + b, edges), tuple(range(a)), tuple(range(a, a + b)))
    counts = bipartite_rank_size_counts(bip)
    from math import comb

    for s in range(bip.m + 1):
        assert sum(row[s] for row in counts) == comb(bip.m, s)


# ---------------------------------------------------------------------------
# The routed tables (component factors, the tree closed form and DP, the
# row-space DP over adjacency or incidence rows, the Gray walk) against
# tables built subset by subset from scratch.


@st.composite
def structured_graphs(draw, bipartite: bool = False) -> Graph:
    """A random forest (a vertex without a parent starts a new tree, so
    isolated vertices and several components occur), plus up to four chords,
    at most 12 edges, vertex ids shuffled.  With ``bipartite`` the chords
    join vertices of opposite depth parity."""
    n = draw(st.integers(0, 11))
    depth = [0] * n
    edges = []
    for i in range(1, n):
        p = draw(st.none() | st.integers(0, i - 1))
        if p is not None:
            edges.append((p, i))
            depth[i] = depth[p] + 1
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (i, j) not in edges and (not bipartite or (depth[i] + depth[j]) % 2)
    ]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    perm = draw(st.permutations(range(n)))
    return Graph(n, tuple((perm[u], perm[v]) for u, v in edges[:12]))


def scratch_table(g: Graph, rows: int, statistic) -> list[list[int]]:
    counts = [[0] * (g.m + 1) for _ in range(rows)]
    for s in range(1 << g.m):
        counts[statistic(s)][bin(s).count("1")] += 1
    return counts


@given(structured_graphs(bipartite=True))
@example(Graph(0, ()))
@example(Graph(4, ()))
@settings(max_examples=150, deadline=None)
def test_bipartite_rank_table_matches_scratch(g):
    b = bipartition_of(g)
    rows = min(len(b.side_u), len(b.side_w)) + 1
    want = scratch_table(g, rows, lambda s: gf2.rank(gf2.bipartite_adjacency(b, s)))
    assert bipartite_rank_size_counts(b) == want


@given(structured_graphs())
@example(Graph(0, ()))
@example(Graph(4, ()))
@settings(max_examples=150, deadline=None)
def test_graph_rank_table_matches_scratch(g):
    want = scratch_table(g, g.n + 1, lambda s: gf2.rank(gf2.adjacency(g, s)))
    assert graph_rank_size_counts(g) == want


def shuffled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def ladder(k: int) -> Graph:
    """The 2 x k ladder: rails 0..k-1 and k..2k-1, rung i joins i and k+i."""
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph(2 * k, tuple(rails + [(i, k + i) for i in range(k)]))


def sun(k: int) -> Graph:
    """C_k on 0..k-1 with a pendant k+i on each i, the pendants numbered last."""
    return Graph(2 * k, cycle_graph(k).edges + tuple((i, k + i) for i in range(k)))


@given(structured_graphs())
@example(Graph(0, ()))
@example(Graph(4, ()))
@example(complete_graph(5))
@example(shuffled(ladder(5), 3))
@example(sun(5))
@example(Graph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2))))  # two triangles at 2
@example(Graph(5, cycle_graph(4).edges))  # C4 and an isolated vertex
@settings(max_examples=150, deadline=None)
def test_component_table_matches_scratch(g):
    want = scratch_table(g, g.n + 1, lambda s: components(g, s)[0])
    assert component_size_counts(g) == want


@pytest.mark.parametrize("g, k, lead", [(cycle_graph(26), 26, 0), (sun(13), 13, 13)],
                         ids=["C26", "sun13"])
@pytest.mark.parametrize("x, y", [(F(2), F(3)), (F(-1, 3), F(5, 2))])
def test_tutte_at_the_edge_limit(g, k, lead, x, y):
    # T(C_k) = y + x + ... + x^(k-1); each pendant multiplies by x
    assert g.m == 26
    start = time.perf_counter()
    assert tutte(g, x, y) == x**lead * (y + sum(x**i for i in range(1, k)))
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# The row-space DP behind R2' against the per-subset rank and the Gray walk


@st.composite
def bipartite_graphs(draw) -> BipartiteGraph:
    """Up to 14 distinct edges between sides of 0-5 vertices each, the
    sides interleaved among the vertex ids; sparse draws leave isolated
    vertices and several components."""
    a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    perm = draw(st.permutations(range(a + b)))
    side_u, side_w = perm[:a], perm[a:]
    pairs = [(u, w) for u in side_u for w in side_w]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14, unique=True)) if pairs else []
    return BipartiteGraph(Graph(a + b, tuple(edges)), side_u, side_w)


def _two_c4s_and_a_vertex() -> BipartiteGraph:
    g = Graph(9, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)))
    return BipartiteGraph(g, (0, 2, 4, 6, 8), (1, 3, 5, 7))


@given(bipartite_graphs())
@example(complete_bipartite(3, 4))
@example(complete_bipartite(2, 7))
@example(complete_bipartite(4, 3))
@example(BipartiteGraph(Graph(5, ()), (0, 1, 2), (3, 4)))
@example(BipartiteGraph(Graph(0, ()), (), ()))
@example(_two_c4s_and_a_vertex())
@settings(max_examples=100, deadline=None)
def test_row_space_table_matches_per_subset_rank_and_walk(b):
    from rankpoly.exact import _biadjacency_rows, _row_space_table, _walked

    want: dict[tuple[int, int], int] = {}
    for s in range(1 << b.m):
        key = (gf2.rank(gf2.bipartite_adjacency(b, s)), bin(s).count("1"))
        want[key] = want.get(key, 0) + 1
    walked = _walked(len(b.side_u), len(b.side_w), gf2.bipartite_adjacency_toggles(b))
    # the rows may lie on either side: rank(M) = rank(M^T)
    on_u = _row_space_table(*_biadjacency_rows(b.graph, list(b.side_u)))
    on_w = _row_space_table(*_biadjacency_rows(b.graph, list(b.side_w)))
    assert on_u == on_w == walked == want


def test_limit_checked_on_the_whole_graph():
    # 27 edges in 27 disjoint components, each trivially cheap
    g = Graph(54, tuple((2 * i, 2 * i + 1) for i in range(27)))
    for build in (graph_rank_size_counts, component_size_counts):
        with pytest.raises(LimitExceededError, match="27 edges exceeds enumeration limit 26"):
            build(g)
    with pytest.raises(LimitExceededError, match="27 edges exceeds enumeration limit 26"):
        bipartite_rank_size_counts(bipartition_of(g))


TWIN_CASES = [
    complete_bipartite(2, 3).graph,
    complete_bipartite(3, 1).graph,
    cloud_blowup(path_graph(2), 3, 1).graph,
    cloud_blowup(path_graph(3), 3, 1).graph,
    cycle_graph(5),
    Graph(8, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),  # K2,3 and an isolated class
]


@pytest.mark.parametrize("g", TWIN_CASES, ids=["K2,3", "K3,1", "cloudP2", "cloudP3", "C5", "K2,3+3"])
@pytest.mark.parametrize("eta", [F(1), F(-1), F(1, 3), F(3)])
def test_twin_closed_form_matches_labeling_oracle(g, eta):
    assert count_pbis_twins(g, eta) == count_pbis_oracle(g, eta)


@st.composite
def w_degree_two_graphs(draw):
    """A bipartite graph with every W degree at most 2 (isolated and
    degree-1 W vertices included), a root on U, and m <= 10."""
    nu = draw(st.integers(1, 4))
    nw = draw(st.integers(0, 5))
    edges = []
    for j in range(nw):
        nbrs = draw(st.lists(st.integers(0, nu - 1), max_size=2, unique=True))
        edges += [(u, nu + j) for u in nbrs]
    edges = edges[:10]
    g = Graph(nu + nw, tuple(edges))
    b = BipartiteGraph(g, tuple(range(nu)), tuple(range(nu, nu + nw)))
    return b, draw(st.integers(0, nu - 1))


def purity_split_by_definition(ups, root, lam, mu):
    """Both sums subset by subset, from the components' purity flags."""
    z_pure = z_mixed = F(0)
    for s in range(1 << ups.m):
        _, comps, pure = components(ups.graph, s, ups.side_w)
        term = lam ** -sum(pure) * mu ** bin(s).count("1")
        if next(flag for comp, flag in zip(comps, pure) if root in comp):
            z_pure += term
        else:
            z_mixed += term
    return z_pure, z_mixed


class TestPuritySplitTables:
    @given(w_degree_two_graphs(), st.sampled_from([F(1), F(1, 3), F(5, 2)]),
           st.sampled_from([F(0), F(-1), F(2)]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_subset_definition(self, case, lam, mu):
        ups, root = case
        assert purity_split_sums(ups, root, lam, mu) == purity_split_by_definition(ups, root, lam, mu)

    def test_26_edge_tree_gadget_runs(self):
        ups, root = fan_gadget(24)
        assert ups.m == 26
        zp, zm = purity_split_sums(ups, root, F(1, 3), F(2))
        assert (F(1, 3) * zp, F(1, 3) * zp + zm) == fan_gadget_closed_forms(24, F(1, 3), F(2))

    def test_27_edge_gadget_raises_before_any_table(self, monkeypatch):
        from rankpoly import exact

        def forbidden(*args, **kwargs):
            raise AssertionError("a table was built past the limit")

        monkeypatch.setattr(exact, "bipartite_rank_size_counts", forbidden)
        ups, root = fan_gadget(25)
        with pytest.raises(LimitExceededError, match="27 edges exceeds enumeration limit 26"):
            purity_split_sums(ups, root, F(1, 3), F(2))
        with pytest.raises(LimitExceededError, match="3 edges exceeds enumeration limit 2"):
            purity_split_sums(*fan_gadget(1), F(1, 3), F(2), max_edges=2)

    def test_root_must_lie_on_u(self):
        ups, _ = fan_gadget(1)
        with pytest.raises(ValueError, match="U side"):
            purity_split_sums(ups, ups.side_w[0], F(1, 3), F(2))


class TestNegativeLimit:
    def test_refused_for_api_callers(self):
        edgeless = bipartition_of(Graph(2, ()))
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            r2_prime(edgeless, F(1), F(1), max_edges=-1)
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            count_pbis_auto(complete_bipartite(2, 2), F(1, 3), max_edges=-1)
        for build in (graph_rank_size_counts, component_size_counts):
            with pytest.raises(ValueError, match="nonnegative, got -3"):
                build(path_graph(2), max_edges=-3)

    def test_zero_still_allows_the_edgeless_graph(self):
        assert r2_prime(bipartition_of(Graph(2, ())), F(2), F(3), max_edges=0).value == 1


class TestEdgeComponents:
    def test_layout_on_shuffled_ids_with_isolated_vertices(self):
        g = Graph(8, ((5, 2), (1, 6), (2, 3), (0, 5), (3, 0)))
        assert _edge_components(g) == [
            ([0, 5, 3, 2], Graph(4, ((1, 3), (3, 2), (0, 1), (2, 0)))),
            ([1, 6], Graph(2, ((0, 1),))),
        ]
