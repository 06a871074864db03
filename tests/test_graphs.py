"""Graph types, component/purity analysis, matchings, and constructions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from rankpoly.gf2 import bipartite_adjacency, rank
from rankpoly.graphs import (
    BipartiteGraph,
    Graph,
    LimitExceededError,
    TreeDecomposition,
    bfs_forest,
    bipartition_of,
    biclique_gadget,
    cloud_blowup,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    fan_gadget,
    is_connected,
    max_matching,
    path_graph,
    pure_component_count,
    star_graph,
    stretch_sum,
    subset_from_edges,
    twin_classes,
    two_stretch,
)
from conftest import (
    max_matching_by_enumeration,
    random_bipartite,
    random_forest,
    random_graph,
    random_tree,
)


@st.composite
def small_graphs(draw, max_n: int = 6):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = tuple(p for i, p in enumerate(pairs) if (mask >> i) & 1)
    return Graph(n, edges)


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Graph(-3, ())

    def test_bipartite_validation(self):
        g = Graph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="cross"):
            BipartiteGraph(g, (0, 1), (2,))
        with pytest.raises(ValueError, match="partition"):
            BipartiteGraph(g, (0,), (1,))

    def test_isolated_count(self):
        g = Graph(5, ((0, 1),))
        assert g.isolated_count() == 3


class TestComponents:
    def test_triangle_empty_subset(self):
        kappa, comps = components(complete_graph(3), 0)
        assert kappa == 3
        assert sorted(map(sorted, comps)) == [[0], [1], [2]]

    def test_bipartite_path_full_is_pure(self):
        b = bipartition_of(path_graph(3))  # U = {0, 2}, W = {1}
        kappa, comps, pure = components(b.graph, b.graph.full_subset(), b.side_w)
        assert kappa == 1 and pure == [True]

    def test_bipartite_path_empty_purity_convention(self):
        # isolated U vertices are pure, the isolated W vertex is mixed
        b = bipartition_of(path_graph(3))
        kappa, comps, pure = components(b.graph, 0, b.side_w)
        assert kappa == 3
        assert sum(pure) == 2

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_vertices(self, g):
        for subset in (0, g.full_subset()):
            kappa, comps = components(g, subset)
            seen = sorted(v for c in comps for v in c)
            assert seen == list(range(g.n))
            assert kappa == len(comps)

    def test_purity_equals_rank_defect(self, rng):
        # rank == |U| - pure components whenever W degrees stay <= 2
        for _ in range(50):
            h = random_graph(rng, rng.randint(1, 5), 0.6)
            b = two_stretch(h)
            for _ in range(10):
                s = rng.randrange(1 << b.m) if b.m else 0
                rk = rank(bipartite_adjacency(b, s))
                assert rk == len(b.side_u) - pure_component_count(b, s)


class TestBfsForest:
    def test_empty_graph(self):
        assert bfs_forest(Graph(0, ())) == ([], [])

    def test_isolated_vertices_are_their_own_roots(self):
        assert bfs_forest(Graph(3, ())) == ([[0], [1], [2]], [-1, -1, -1])

    def test_components_in_order_of_their_smallest_vertex(self):
        g = Graph(7, ((5, 2), (1, 6), (2, 3), (0, 5)))
        comps, parent = bfs_forest(g)
        assert comps == [[0, 5, 2, 3], [1, 6], [4]]
        assert parent == [-1, -1, 5, 2, -1, 0, 1]

    def test_neighbours_in_edge_id_order(self):
        comps, parent = bfs_forest(Graph(4, ((0, 3), (0, 1), (0, 2))))
        assert comps == [[0, 3, 1, 2]]
        assert parent == [-1, 0, 0, 0]

    def test_parents_along_a_shuffled_path(self):
        comps, parent = bfs_forest(Graph(5, ((3, 1), (1, 4), (4, 0), (2, 3))))
        assert comps == [[0, 4, 1, 3, 2]]
        assert parent == [-1, 4, 3, 1, 0]

    def test_cycle_parents_are_the_first_discoverers(self):
        comps, parent = bfs_forest(cycle_graph(5))
        assert comps == [[0, 1, 4, 2, 3]]
        assert parent == [-1, 0, 1, 4, 0]

    @given(small_graphs(8))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_components(self, g):
        comps, parent = bfs_forest(g)
        kappa, uf = components(g, g.full_subset())
        assert kappa == len(comps)
        assert sorted(map(sorted, uf)) == sorted(map(sorted, comps))
        adjacent = {frozenset(e) for e in g.edges}
        for order in comps:
            assert order[0] == min(order) and parent[order[0]] == -1
            place = {v: i for i, v in enumerate(order)}
            for v in order[1:]:
                assert frozenset((v, parent[v])) in adjacent
                assert place[parent[v]] < place[v]
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)


class TestMaxMatching:
    def test_empty_subset(self):
        assert max_matching(complete_graph(4), 0) == 0

    def test_path4_full(self):
        assert max_matching(path_graph(4)) == 2

    def test_cycle4_full(self):
        assert max_matching(cycle_graph(4)) == 2

    def test_odd_cycle_exhaustive_branch(self):
        assert max_matching(cycle_graph(5)) == 2
        assert max_matching(cycle_graph(7)) == 3

    def test_limit_on_general_graphs(self):
        with pytest.raises(LimitExceededError):
            max_matching(complete_graph(8))  # 28 edges, odd cycles

    def test_against_enumeration(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            s = rng.randrange(1 << g.m) if g.m else 0
            assert max_matching(g, s) == max_matching_by_enumeration(g, s)

    def test_forest_rank_identity(self, rng):
        # kappa(S) + spanning-forest edges = n, via |comp|-1 per component
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7), 0.4)
            s = rng.randrange(1 << g.m) if g.m else 0
            kappa, comps = components(g, s)
            assert kappa + sum(len(c) - 1 for c in comps) == g.n


class TestTwoStretch:
    def test_single_edge_becomes_path3(self):
        b = two_stretch(path_graph(2))
        assert b.n == 3 and b.m == 2
        assert b.side_w == (2,)
        assert b.graph.degrees()[2] == 2

    def test_triangle_becomes_six_cycle(self):
        b = two_stretch(complete_graph(3))
        assert b.n == 6 and b.m == 6
        assert all(b.graph.degrees()[v] == 2 for v in b.side_w)
        assert is_connected(b.graph)
        kappa, _ = components(b.graph, b.graph.full_subset())
        assert kappa == 1

    def test_edgeless_graph(self):
        b = two_stretch(Graph(4, ()))
        assert b.n == 4 and b.m == 0 and b.side_w == ()

    def test_stretched_subsets_preserve_components(self, rng):
        for _ in range(30):
            h = random_graph(rng, rng.randint(1, 6), 0.5)
            b = two_stretch(h)
            sub = rng.randrange(1 << h.m) if h.m else 0
            stretched = 0
            for i in range(h.m):
                if (sub >> i) & 1:
                    stretched |= 1 << (2 * i)
                    stretched |= 1 << (2 * i + 1)
            kappa_h, _ = components(h, sub)
            kappa_g, comps, pure = components(b.graph, stretched, b.side_w)
            # midpoints of unused edges are isolated mixed singletons; every
            # component holding an original vertex is pure and they number
            # exactly kappa of the original subgraph
            assert kappa_g == kappa_h + h.m - bin(sub).count("1")
            originals = [
                (comp, flag) for comp, flag in zip(comps, pure) if min(comp) < h.n
            ]
            assert len(originals) == kappa_h
            assert all(flag for _, flag in originals)


class TestStretchSum:
    def test_k2_with_single_edge_gadget(self):
        ups = complete_bipartite(1, 1)
        result = stretch_sum(path_graph(2), ups, 0)
        assert result.n == 5 and result.m == 4
        # a path: all degrees <= 2, connected
        assert is_connected(result.graph)
        assert sorted(result.graph.degrees()) == [1, 1, 2, 2, 2]

    def test_k3_with_fan_gadget_counts(self):
        ups, root = fan_gadget(2)
        result = stretch_sum(complete_graph(3), ups, root)
        assert len(result.side_u) == 6
        assert len(result.side_w) == 12
        assert result.m == 18
        assert result.m == 2 * 3 + 3 * ups.m

    def test_single_vertex_gives_one_copy(self):
        ups, root = fan_gadget(1)
        result = stretch_sum(Graph(1, ()), ups, root)
        assert result.n == ups.n and result.m == ups.m

    def test_root_must_be_u_side(self):
        ups, _ = fan_gadget(1)
        with pytest.raises(ValueError, match="U side"):
            stretch_sum(path_graph(2), ups, ups.side_w[0])

    def test_layout_is_pinned(self):
        # ids, edge order, sides and labels as documented, recorded literally
        result = stretch_sum(complete_graph(3), *fan_gadget(2))
        assert result.n == 18
        assert result.edges == (
            (0, 3), (1, 3), (0, 4), (2, 4), (1, 5), (2, 5),
            (0, 7), (6, 7), (6, 8), (6, 9),
            (1, 11), (10, 11), (10, 12), (10, 13),
            (2, 15), (14, 15), (14, 16), (14, 17),
        )
        assert result.side_u == (0, 1, 2, 6, 10, 14)
        assert result.side_w == (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17)
        assert result.graph.labels[3:10] == (
            "mid0", "mid1", "mid2", "c0:u1", "c0:v0", "c0:v1", "c0:v2"
        )

        result = stretch_sum(path_graph(2), *biclique_gadget(1))
        assert result.n == 13
        assert result.edges == (
            (0, 2), (1, 2),
            (0, 5), (3, 5), (3, 6), (4, 6), (3, 7), (4, 7),
            (1, 10), (8, 10), (8, 11), (9, 11), (8, 12), (9, 12),
        )
        assert result.side_u == (0, 1, 3, 4, 8, 9)
        assert result.side_w == (2, 5, 6, 7, 10, 11, 12)
        assert result.graph.labels == (
            "v0", "v1", "mid0", "c0:u1", "c0:u2", "c0:v0", "c0:v1", "c0:v2",
            "c1:u1", "c1:u2", "c1:v0", "c1:v1", "c1:v2",
        )

    def test_layout_with_a_root_past_vertex_zero(self):
        # the root's copy vertex is skipped wherever it falls in ups order
        result = stretch_sum(path_graph(3), complete_bipartite(2, 1), 1)
        assert result.edges == (
            (0, 3), (1, 3), (1, 4), (2, 4), (5, 6), (0, 6), (7, 8), (1, 8), (9, 10), (2, 10)
        )
        assert result.side_u == (0, 1, 2, 5, 7, 9)
        assert result.side_w == (3, 4, 6, 8, 10)
        assert result.graph.labels == (
            "v0", "v1", "v2", "mid0", "mid1",
            "c0:g0", "c0:g2", "c1:g0", "c1:g2", "c2:g0", "c2:g2",
        )

    def test_w_degrees_stay_at_most_2(self, rng):
        ups, root = fan_gadget(3)
        h = random_graph(rng, 4, 0.6)
        result = stretch_sum(h, ups, root)
        deg = result.graph.degrees()
        assert all(deg[v] <= 2 for v in result.side_w)


class TestGadgets:
    def test_fan_k0_is_path(self):
        b, root = fan_gadget(0)
        assert root == 0
        assert b.n == 3 and b.m == 2
        assert sorted(b.graph.degrees()) == [1, 1, 2]

    def test_fan_k1(self):
        b, _ = fan_gadget(1)
        assert len(b.side_w) == 2 and b.m == 3

    def test_fan_k2(self):
        b, _ = fan_gadget(2)
        assert b.n == 5 and b.m == 4

    def test_fan_rejects_negative(self):
        with pytest.raises(ValueError):
            fan_gadget(-1)

    def test_biclique_k1(self):
        b, root = biclique_gadget(1)
        assert root == 0
        assert b.n == 6 and b.m == 6
        assert len(b.side_u) == 3 and len(b.side_w) == 3

    def test_biclique_k2(self):
        b, _ = biclique_gadget(2)
        assert len(b.side_w) == 5 and b.m == 10

    def test_biclique_rejects_k0(self):
        with pytest.raises(ValueError):
            biclique_gadget(0)

    def test_biclique_w_degrees_exactly_2(self):
        b, _ = biclique_gadget(2)
        deg = b.graph.degrees()
        assert all(deg[v] == 2 for v in b.side_w)


class TestCloudBlowup:
    def test_k2_p3_k1_counts(self):
        b = cloud_blowup(path_graph(2), 3, 1)
        assert b.n == 2 * 3 + 1 * 2 == 8
        assert b.m == 2 * (3 * 2) == 12

    def test_single_vertex(self):
        b = cloud_blowup(Graph(1, ()), 5, 2)
        assert b.n == 10 and b.m == 0

    def test_p3_p3_k1_counts(self):
        b = cloud_blowup(path_graph(3), 3, 1)
        assert b.n == 9 + 4 == 13
        assert b.m == 4 * 3 * 2 == 24

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError, match="prime"):
            cloud_blowup(path_graph(2), 9, 1)

    def test_rejects_p2(self):
        with pytest.raises(ValueError, match="prime"):
            cloud_blowup(path_graph(2), 2, 1)


class TestTreeDecomposition:
    def test_valid_path_decomposition(self):
        g = cycle_graph(4)
        td = TreeDecomposition(
            path_graph(2), ((0, 1, 2), (0, 2, 3))
        )
        td.validate_for(g)
        assert td.width == 2

    def test_missing_edge_rejected(self):
        g = cycle_graph(4)
        td = TreeDecomposition(path_graph(2), ((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="not inside any bag"):
            td.validate_for(g)

    def test_disconnected_holders_rejected(self):
        g = path_graph(3)
        td = TreeDecomposition(path_graph(3), ((0, 1), (1,), (0, 1, 2)))
        with pytest.raises(ValueError, match="not connected"):
            td.validate_for(g)

    def test_non_tree_rejected(self):
        g = path_graph(2)
        td = TreeDecomposition(cycle_graph(3), ((0, 1), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="not a tree"):
            td.validate_for(g)


class TestBipartitionHelpers:
    def test_path3_sides(self):
        b = bipartition_of(path_graph(3))
        assert b.side_u == (0, 2) and b.side_w == (1,)

    def test_odd_cycle_rejected(self):
        with pytest.raises(ValueError, match="not bipartite"):
            bipartition_of(cycle_graph(5))

    def test_subset_from_edges(self):
        g = cycle_graph(4)
        s = subset_from_edges(g, [(1, 0), (2, 3)])
        assert s == 0b0101

    def test_forests_are_bipartite(self, rng):
        for _ in range(20):
            f = random_forest(rng, rng.randint(2, 10))
            bipartition_of(f)


def test_twin_classes_group_equal_neighbourhoods():
    g = Graph(8, ((0, 2), (0, 3), (1, 2), (1, 3), (4, 5)))
    assert twin_classes(g) == [[0, 1], [2, 3], [4], [5], [6, 7]]
    assert twin_classes(star_graph(4)) == [[0], [1, 2, 3, 4]]


def test_random_builders_draw_in_a_fixed_order():
    from rankpoly import graphs

    rng, ref = random.Random(3), random.Random(3)
    t = graphs.random_tree(rng, 9)
    assert t.edges == tuple((ref.randrange(i), i) for i in range(1, 9))
    b = graphs.random_bipartite(rng, 3, 4, 0.4)
    kept = tuple((i, 3 + j) for i in range(3) for j in range(4) if ref.random() < 0.4)
    assert b.edges == kept and b.side_u == (0, 1, 2) and b.side_w == (3, 4, 5, 6)
    assert rng.random() == ref.random()
