"""Orderings, canonical paths, congestion, and exact mixing diagnostics."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import rankpoly
from rankpoly.chains import RC, RWS, ChainParams, run
from rankpoly.graphs import (
    Graph,
    LimitExceededError,
    TreeDecomposition,
    bipartition_of,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    max_matching,
    path_graph,
    star_graph,
)
from rankpoly.mixing import (
    CONGESTION_LIMIT,
    START_BLOCK_ENTRIES,
    START_MATRIX_LIMIT,
    ExactChain,
    canonical_path,
    congestion,
    congestion_bound,
    dfs_tree_ordering,
    empirical_tv,
    linear_width_of_ordering,
    mixing_bound_from_congestion,
    natural_ordering,
    optimal_linear_width,
    treedec_ordering,
)
from conftest import random_graph, random_tree


def test_mixing_bound_takes_tiny_stationary_mass():
    # pi far below the smallest double: log(1/pi) = 400 log 10 exactly
    bound = mixing_bound_from_congestion(F(3), F(1, 10**400), 0.25)
    assert bound == pytest.approx(3 * (400 * math.log(10) + math.log(4)))


def test_import_rankpoly_leaves_numpy_unloaded():
    code = (
        "import sys, rankpoly; assert 'numpy' not in sys.modules, 'numpy'; "
        "assert 'scipy.sparse' not in sys.modules, 'scipy'; "
        "assert rankpoly.ExactChain.__module__ == 'rankpoly.mixing'"
    )
    src = str(Path(rankpoly.__file__).resolve().parents[1])  # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def grid_3x3() -> Graph:
    edges = []
    for r in range(3):
        for c in range(3):
            v = r * 3 + c
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    return Graph(9, tuple(edges))


def congestion_by_path_walking(g, ordering, params, target=None):
    """Literal definition: walk every (I, F) canonical path."""
    chain = ExactChain(target if target is not None else g, params)
    m = g.m
    wt, z = chain.weights, chain.total_weight
    load: dict[tuple[int, int], int] = {}
    for i in range(1 << m):
        for f in range(1 << m):
            path = canonical_path(i, f, ordering)
            k = len(path) - 1
            for j in range(k):
                tr = (path[j], path[j + 1])
                load[tr] = load.get(tr, 0) + wt[i] * wt[f] * k
    return max(
        F(2 * m * num, z * min(wt[h], wt[hp])) for (h, hp), num in load.items()
    )


class TestLinearWidth:
    def test_paths_natural_order(self):
        for n in (2, 3, 5, 8):
            assert natural_ordering(path_graph(n)).width == (1 if n > 2 else 0)

    def test_cycles_natural_order(self):
        for n in (3, 4, 6, 9):
            assert natural_ordering(cycle_graph(n)).width == 2

    def test_cycle_any_order_at_least_two(self, rng):
        g = cycle_graph(6)
        for _ in range(20):
            perm = list(range(g.m))
            rng.shuffle(perm)
            assert linear_width_of_ordering(g, perm).width >= 2

    def test_single_edge(self):
        assert natural_ordering(path_graph(2)).width == 0

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            linear_width_of_ordering(path_graph(3), [0, 0])

    def test_profile_matches_direct_count(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            if not g.m:
                continue
            perm = list(range(g.m))
            rng.shuffle(perm)
            o = linear_width_of_ordering(g, perm)
            for cut in range(g.m):
                before = set()
                after = set()
                for pos, eid in enumerate(perm):
                    side = before if pos < cut else after
                    side.update(g.edges[eid])
                assert o.profile[cut] == len(before & after)


class TestOptimalWidth:
    def test_path4(self):
        assert optimal_linear_width(path_graph(4)) == 1

    def test_c4(self):
        assert optimal_linear_width(cycle_graph(4)) == 2

    def test_k4_frozen(self):
        # pinned by the exhaustive search over all 6! orderings
        assert optimal_linear_width(complete_graph(4)) == 3

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            optimal_linear_width(complete_graph(5))


class TestDfsOrdering:
    def test_star_rooted_at_center(self):
        assert dfs_tree_ordering(star_graph(5)).width == 1

    def test_path8(self):
        assert dfs_tree_ordering(path_graph(8)).width == 1

    def test_complete_binary_tree_15(self):
        t = Graph(15, tuple((i, (i - 1) // 2) for i in range(1, 15)))
        o = dfs_tree_ordering(t)
        assert o.width <= 3
        assert o.width == linear_width_of_ordering(t, o.perm).width

    def test_log_bound_on_random_trees(self, rng):
        for _ in range(100):
            n = rng.randint(2, 300)
            t = random_tree(rng, n)
            assert dfs_tree_ordering(t).width <= int(math.log2(n))

    def test_forest_support(self, rng):
        t1 = random_tree(rng, 5)
        shifted = tuple((u + 5, v + 5) for u, v in random_tree(rng, 4).edges)
        f = Graph(9, t1.edges + shifted)
        assert dfs_tree_ordering(f).width <= 3

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            dfs_tree_ordering(cycle_graph(4))


class TestTreedecOrdering:
    def test_c6_natural_decomposition(self):
        c6 = cycle_graph(6)
        td = TreeDecomposition(
            path_graph(4), ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5))
        )
        o = treedec_ordering(c6, td)
        bound = (td.width + 1) * (int(math.log2(6)) + 1)
        assert o.width <= bound
        assert o.width == 2  # frozen: computed from this decomposition

    def test_grid_with_path_decomposition(self):
        grid = grid_3x3()
        td = TreeDecomposition(
            path_graph(6),
            ((0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7), (5, 6, 7, 8)),
        )
        o = treedec_ordering(grid, td)
        assert o.width <= (td.width + 1) * (int(math.log2(9)) + 1) == 16
        assert o.width == 3  # frozen: computed from this decomposition

    def test_tree_with_edge_bags(self, rng):
        t = random_tree(rng, 8)
        bags = tuple(tuple(e) for e in t.edges)
        td = TreeDecomposition(path_graph(len(bags)), bags)
        # edge-bag path decompositions of a tree are not always valid
        # decompositions; use a star where they are
        s = star_graph(6)
        td = TreeDecomposition(path_graph(6), tuple((0, i + 1) for i in range(6)))
        o = treedec_ordering(s, td)
        assert o.width <= 2 * (int(math.log2(7)) + 1)

    def test_invalid_decomposition_rejected(self):
        g = cycle_graph(4)
        td = TreeDecomposition(path_graph(2), ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            treedec_ordering(g, td)


class TestCanonicalPath:
    def test_identical_endpoints(self):
        o = natural_ordering(path_graph(4))
        assert canonical_path(5, 5, o) == [5]

    def test_single_flip(self):
        o = natural_ordering(path_graph(2))
        assert canonical_path(0, 1, o) == [0, 1]

    def test_path_structure(self, rng):
        g = random_graph(rng, 6, 0.5)
        if g.m == 0:
            g = path_graph(4)
        perm = list(range(g.m))
        rng.shuffle(perm)
        o = linear_width_of_ordering(g, perm)
        for _ in range(100):
            start = rng.randrange(1 << g.m)
            finish = rng.randrange(1 << g.m)
            path = canonical_path(start, finish, o)
            assert path[0] == start and path[-1] == finish
            assert len(path) == bin(start ^ finish).count("1") + 1
            pos = {eid: t for t, eid in enumerate(o.perm)}
            last = -1
            for a, b in zip(path, path[1:]):
                d = a ^ b
                assert d and not (d & (d - 1))  # exactly one edge
                t = pos[d.bit_length() - 1]
                assert t > last  # flips happen in ordering position order
                last = t


class TestDifferenceBounds:
    def test_matching_difference_on_tree(self, rng):
        t = random_tree(rng, 7)
        o = dfs_tree_ordering(t)
        for _ in range(500):
            start, finish = rng.randrange(1 << t.m), rng.randrange(1 << t.m)
            wi, wf = max_matching(t, start), max_matching(t, finish)
            for h in canonical_path(start, finish, o):
                c = start ^ finish ^ h
                assert abs(wi + wf - max_matching(t, h) - max_matching(t, c)) <= o.width

    def test_component_difference_any_graph(self, rng):
        g = random_graph(rng, 6, 0.5)
        if g.m == 0:
            g = cycle_graph(5)
        perm = list(range(g.m))
        rng.shuffle(perm)
        o = linear_width_of_ordering(g, perm)
        for _ in range(300):
            start, finish = rng.randrange(1 << g.m), rng.randrange(1 << g.m)
            ki, kf = components(g, start)[0], components(g, finish)[0]
            for h in canonical_path(start, finish, o):
                c = start ^ finish ^ h
                kh, kc = components(g, h)[0], components(g, c)[0]
                assert abs(ki + kf - kh - kc) <= o.width


class TestEncodingInjectivity:
    def _check_graph(self, g, ordering, chain):
        m = g.m
        pos_edge = list(ordering.perm)
        for t in range(m):
            bit = 1 << pos_edge[t]
            earlier = [1 << pos_edge[s] for s in range(t)]
            later = [1 << pos_edge[s] for s in range(t + 1, m)]
            for h in range(1 << m):
                hp = h ^ bit
                hhat = h if chain.weights[h] <= chain.weights[hp] else hp
                seen = set()
                count = 0
                for a in range(1 << len(earlier)):
                    da = 0
                    for i, b in enumerate(earlier):
                        if (a >> i) & 1:
                            da |= b
                    for c in range(1 << len(later)):
                        dc = 0
                        for i, b in enumerate(later):
                            if (c >> i) & 1:
                                dc |= b
                        d = da | bit | dc
                        seen.add(d ^ hhat)
                        count += 1
                assert len(seen) == count  # the encoding is injective

    def test_exhaustive_small(self, rng):
        g = path_graph(4)
        chain = ExactChain(bipartition_of(g), ChainParams(RWS, F(1, 2), F(1)))
        self._check_graph(g, dfs_tree_ordering(g), chain)

    def test_exhaustive_m10_tree(self, rng):
        # all 2^m * m transitions of a 10-edge tree, all 2^(m-1) loading
        # pairs each: every encoded value distinct
        t = Graph(11, tuple((rng.randrange(i), i) for i in range(1, 11)))
        b = bipartition_of(t)
        chain = ExactChain(b, ChainParams(RWS, F(1, 2), F(1)))
        o = dfs_tree_ordering(t)
        m = t.m
        for tpos in range(m):
            bit = 1 << o.perm[tpos]
            earlier = [1 << o.perm[s] for s in range(tpos)]
            later = [1 << o.perm[s] for s in range(tpos + 1, m)]
            emasks = [0]
            for e_bit in earlier:
                emasks += [x | e_bit for x in emasks]
            lmasks = [0]
            for l_bit in later:
                lmasks += [x | l_bit for x in lmasks]
            for h in range(1 << m):
                hp = h ^ bit
                hhat = h if chain.weights[h] <= chain.weights[hp] else hp
                base = hhat ^ bit
                seen = {base ^ da ^ dc for da in emasks for dc in lmasks}
                assert len(seen) == 1 << (m - 1)

    def test_loading_pairs_really_use_the_transition(self, rng):
        g = path_graph(5)
        o = dfs_tree_ordering(g)
        m = g.m
        for _ in range(200):
            t = rng.randrange(m)
            h = rng.randrange(1 << m)
            bit = 1 << o.perm[t]
            da = 0
            for s in range(t):
                if rng.random() < 0.5:
                    da |= 1 << o.perm[s]
            dc = 0
            for s in range(t + 1, m):
                if rng.random() < 0.5:
                    dc |= 1 << o.perm[s]
            start = h ^ da
            finish = (h ^ bit) ^ dc
            path = canonical_path(start, finish, o)
            assert (h, h ^ bit) in list(zip(path, path[1:]))


class TestCongestion:
    def test_k2_hand_value(self):
        g = path_graph(2)
        res = congestion(g, natural_ordering(g), ChainParams(RC, F(1), F(1)))
        assert res.rho == 1
        assert res.rho <= congestion_bound(g, ChainParams(RC, F(1), F(1)), res.width)

    def test_p4_dfs_rws(self):
        g = path_graph(4)
        o = dfs_tree_ordering(g)
        params = ChainParams(RWS, F(1, 2), F(1))
        res = congestion(bipartition_of(g), o, params)
        assert res.rho <= 2 * 9 * 2  # 2 m^2 lambdabar^ell with ell = 1
        assert res.rho == congestion_by_path_walking(g, o, params, bipartition_of(g))

    def test_star_rc(self):
        g = star_graph(4)
        o = dfs_tree_ordering(g)
        params = ChainParams(RC, F(2), F(1))
        res = congestion(g, o, params)
        assert res.rho <= congestion_bound(g, params, o.width)
        assert res.rho == congestion_by_path_walking(g, o, params)

    def test_matches_literal_definition_on_random_instances(self, rng):
        for _ in range(6):
            g = random_graph(rng, rng.randint(2, 4), 0.7)
            if g.m == 0:
                continue
            perm = list(range(g.m))
            rng.shuffle(perm)
            o = linear_width_of_ordering(g, perm)
            params = ChainParams(RC, F(rng.randint(1, 3)), F(rng.randint(1, 3)))
            assert congestion(g, o, params).rho == congestion_by_path_walking(
                g, o, params
            )

    def test_matches_literal_definition_rank_weights_nontree(self, rng):
        g = cycle_graph(6)  # rank differs from matching here
        b = bipartition_of(g)
        perm = list(range(g.m))
        rng.shuffle(perm)
        o = linear_width_of_ordering(g, perm)
        params = ChainParams(RWS, F(1, 3), F(2))
        assert congestion(b, o, params).rho == congestion_by_path_walking(
            g, o, params, target=b
        )

    def test_limit(self):
        g = complete_graph(6)  # 15 edges
        with pytest.raises(LimitExceededError):
            congestion(g, natural_ordering(g), ChainParams(RC, F(1), F(1)))

    def test_argmax_is_a_single_flip(self, rng):
        g = cycle_graph(5)
        o = natural_ordering(g)
        res = congestion(g, o, ChainParams(RC, F(2), F(3)))
        h, hp = res.argmax
        d = h ^ hp
        assert d and not (d & (d - 1))


class TestExactChain:
    def test_rows_sum_to_one_exactly(self):
        chain = ExactChain(cycle_graph(4), ChainParams(RC, F(2), F(3)))
        for h in range(chain.n_states):
            total = chain.transition_prob(h, h) + sum(
                chain.transition_prob(h, h ^ (1 << e)) for e in range(chain.m)
            )
            assert total == 1

    def test_laziness(self):
        chain = ExactChain(cycle_graph(4), ChainParams(RC, F(1, 3), F(5)))
        for h in range(chain.n_states):
            assert chain.transition_prob(h, h) >= F(1, 2)

    def test_laziness_makes_spectrum_nonnegative(self):
        import numpy as np

        chain = ExactChain(path_graph(4), ChainParams(RC, F(2), F(3)))
        dense = chain.sparse_transition().toarray()
        eigs = np.linalg.eigvals(dense)
        assert eigs.real.min() > -1e-10
        assert abs(eigs.imag).max() < 1e-10  # reversible: real spectrum

    def test_stationarity_exact(self):
        b = bipartition_of(path_graph(4))
        chain = ExactChain(b, ChainParams(RWS, F(1, 2), F(2)))
        pi = chain.pi_exact()
        for hp in range(chain.n_states):
            mass = pi[hp] * chain.transition_prob(hp, hp)
            for e in range(chain.m):
                h = hp ^ (1 << e)
                mass += pi[h] * chain.transition_prob(h, hp)
            assert mass == pi[hp]

    def test_pi_float_is_computed_once_and_read_only(self):
        chain = ExactChain(cycle_graph(5), ChainParams(RC, F(1, 3), F(7)))
        pi = chain.pi_float()
        assert pi is chain.pi_float()
        assert pi.tolist() == [float(x) for x in chain.pi_exact()]
        with pytest.raises(ValueError):
            pi[0] = 0.0

    def test_detailed_balance_exact(self):
        for g, fam in ((path_graph(4), RWS), (cycle_graph(4), RC)):
            target = bipartition_of(g) if fam == RWS else g
            chain = ExactChain(target, ChainParams(fam, F(1, 3), F(7)))
            assert chain.verify_detailed_balance()

    def test_k2_mixes_in_one_step(self):
        chain = ExactChain(path_graph(2), ChainParams(RC, F(1), F(1)))
        for start in (0, 1):
            curve = chain.tv_curve(start, tmax=3)
            assert curve[1] < 1e-15

    def test_tv_curve_monotone(self):
        b = bipartition_of(path_graph(5))
        chain = ExactChain(b, ChainParams(RWS, F(1, 2), F(1)))
        curve = chain.tv_curve(0, tmax=60)
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_six_edge_path_tau_below_congestion_bound(self):
        g = path_graph(7)
        b = bipartition_of(g)
        params = ChainParams(RWS, F(1, 2), F(1))
        chain = ExactChain(b, params)
        o = dfs_tree_ordering(g)
        rho = congestion(b, o, params).rho
        tau = chain.mixing_time(0.25)
        bound = mixing_bound_from_congestion(rho, chain.pi_min(), 0.25)
        assert tau <= bound

    def test_tree_tau_below_explicit_size_bound(self, rng):
        # fully explicit composition: rho <= 2 m^2 lambdabar^ell and
        # ell <= floor(log2 n) give tau <= 2 n^(2+|log2 lam|) * logs
        for lam in (F(1, 2), F(2)):
            for _ in range(3):
                t = random_tree(rng, rng.randint(3, 8))
                b = bipartition_of(t)
                params = ChainParams(RWS, lam, F(1))
                chain = ExactChain(b, params)
                tau = chain.mixing_time(0.25)
                explicit_rho = 2 * t.n ** (2 + abs(math.log2(lam)))
                bound = mixing_bound_from_congestion(
                    F(explicit_rho).limit_denominator(10**9),
                    chain.pi_min(),
                    0.25,
                )
                assert tau <= bound

    def test_empirical_samples_close_after_burnin(self):
        g = path_graph(7)
        b = bipartition_of(g)
        params = ChainParams(RWS, F(1, 2), F(1))
        chain = ExactChain(b, params)
        tau = chain.mixing_time(0.25)
        res = run(b, params, 120_000, seed=3, burnin=10 * tau, thin=10)
        assert empirical_tv(chain, res.samples) < 0.05

    def test_trio_is_empty_full_and_lightest(self):
        chain = ExactChain(cycle_graph(5), ChainParams(RC, F(3), F(1, 2)))
        lightest = min(range(chain.n_states), key=lambda s: chain.weights[s])
        assert chain.trio() == sorted({0, chain.n_states - 1, lightest})
        assert chain.default_starts() == list(range(chain.n_states))  # m <= 12 sweeps all

    def test_limit(self):
        with pytest.raises(LimitExceededError):
            ExactChain(complete_graph(7), ChainParams(RC, F(1), F(1)))


# ---------------------------------------------------------------------------
# References for the operator, tau and congestion: the straightforward loops


def reference_sparse_transition(chain):
    """P built entry by entry from the integer weights."""
    from scipy.sparse import csr_matrix

    n, m = chain.n_states, chain.m
    rows, cols, vals = [], [], []
    stay = np.ones(n)
    for h in range(n):
        wh = chain.weights[h]
        for e in range(m):
            hp = h ^ (1 << e)
            p = min(wh, chain.weights[hp]) / (2 * m * wh)
            rows.append(h)
            cols.append(hp)
            vals.append(p)
            stay[h] -= p
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(stay)
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def reference_mixing_time(chain, eps, starts):
    """Every start stepped as given, finished rows masked out."""
    p = chain.sparse_transition()
    pi = chain.pi_float()
    dists = np.zeros((len(starts), chain.n_states))
    for i, s in enumerate(starts):
        dists[i, s] = 1.0
    t = 0
    tv = 0.5 * np.abs(dists - pi).sum(axis=1)
    pending = tv > eps
    while pending.any():
        dists[pending] = dists[pending] @ p
        t += 1
        tv[pending] = 0.5 * np.abs(dists[pending] - pi).sum(axis=1)
        pending = tv > eps
    return t


def reference_congestion(target, ordering, params):
    """The prefix/suffix streaming congestion with a Fraction per candidate."""
    chain = ExactChain(target, params)
    wt, z, m, n, perm = chain.weights, chain.total_weight, chain.m, chain.n_states, ordering.perm
    s2_snap, s2k_snap = {m - 1: list(wt)}, {m - 1: [0] * n}
    for t in range(m - 2, -1, -1):
        bit = 1 << perm[t + 1]
        prev, prevk = s2_snap[t + 1], s2k_snap[t + 1]
        s2_snap[t] = [prev[h] + prev[h ^ bit] for h in range(n)]
        s2k_snap[t] = [prevk[h] + prevk[h ^ bit] + prev[h ^ bit] for h in range(n)]
    best, best_pair = F(-1), (0, 0)
    s1, s1k = list(wt), [0] * n
    for t in range(m):
        bit = 1 << perm[t]
        suf, sufk = s2_snap[t], s2k_snap[t]
        for h in range(n):
            hp = h ^ bit
            num = s1k[h] * suf[hp] + s1[h] * sufk[hp] + s1[h] * suf[hp]
            rho = F(2 * m * num, z * min(wt[h], wt[hp]))
            if rho > best:
                best, best_pair = rho, (h, hp)
        s1, s1k = ([s1[h] + s1[h ^ bit] for h in range(n)],
                   [s1k[h] + s1k[h ^ bit] + s1[h ^ bit] for h in range(n)])
    return best, best_pair


def target_for(family, g):
    if family == RWS:
        return g if hasattr(g, "side_u") else bipartition_of(g)
    return g.graph if hasattr(g, "graph") else g


def tree_with_cherries(rng, n):
    """A random tree with two extra leaves on each of two random vertices."""
    t = random_tree(rng, n)
    edges = list(t.edges)
    for hub in rng.sample(range(n), 2):
        edges += [(hub, n), (hub, n + 1)]
        n += 2
    return Graph(n, tuple(edges))


PARAMS = [(F(1, 2), F(1)), (F(3), F(2, 7)), (F(2, 5), F(7, 3))]


class TestOrbits:
    @pytest.mark.parametrize("family", [RWS, RC])
    def test_orbit_counts(self, family):
        params = ChainParams(family, F(3), F(2, 7))
        for k in range(1, 8):
            chain = ExactChain(target_for(family, star_graph(k)), params)
            assert len(np.unique(chain.orbit_labels())) == k + 1
        chain = ExactChain(target_for(family, complete_bipartite(2, 2)), params)
        assert len(np.unique(chain.orbit_labels())) == 7
        for n in range(4, 10):  # paths on 4+ vertices have no twins
            chain = ExactChain(target_for(family, path_graph(n)), params)
            assert np.array_equal(chain.orbit_labels(), np.arange(chain.n_states))

    @pytest.mark.parametrize("family", [RWS, RC])
    def test_labels_are_orbit_minima_with_constant_weight(self, family, rng):
        for g in (star_graph(5), complete_bipartite(2, 3), tree_with_cherries(rng, 5)):
            chain = ExactChain(target_for(family, g), ChainParams(family, F(2, 5), F(7, 3)))
            labels = chain.orbit_labels()
            assert all(labels[labels] == labels) and all(labels <= np.arange(chain.n_states))
            for s, r in enumerate(labels.tolist()):
                assert chain.weights[s] == chain.weights[r]
                assert chain.statistic[s] == chain.statistic[r]
                assert bin(s).count("1") == bin(r).count("1")

    @pytest.mark.parametrize("family", [RWS, RC])
    def test_mixing_time_matches_unreduced_loop(self, family, rng):
        graphs = []
        for _ in range(3):
            graphs += [star_graph(rng.randint(3, 7)), tree_with_cherries(rng, rng.randint(3, 5)),
                       complete_bipartite(rng.randint(1, 3), rng.randint(2, 3))]
        for g in graphs:
            lam, mu = rng.choice(PARAMS)
            chain = ExactChain(target_for(family, g), ChainParams(family, lam, mu))
            eps = rng.choice((0.05, 0.1, 0.25))
            everything = list(range(chain.n_states))
            some = rng.sample(everything, rng.randint(1, min(20, chain.n_states)))
            for starts in (everything, some, chain.default_starts()):
                assert chain.mixing_time(eps, starts) == reference_mixing_time(chain, eps, starts)

    @pytest.mark.parametrize("family", [RWS, RC])
    def test_start_blocks_of_any_size_give_the_same_tau(self, family, rng, monkeypatch):
        chain = ExactChain(target_for(family, tree_with_cherries(rng, 5)), ChainParams(family, F(3), F(2, 7)))
        everything = list(range(chain.n_states))
        expected = reference_mixing_time(chain, 0.1, everything)
        for rows in (1, 2, 3, 7, chain.n_states):
            monkeypatch.setattr(rankpoly.mixing, "START_BLOCK_ENTRIES", rows * chain.n_states)
            assert chain.mixing_time(0.1, everything) == expected

    def test_orbits_labelled_only_past_one_block(self):
        chain = ExactChain(star_graph(12), ChainParams(RC, F(3), F(2, 7)))
        trio = sorted({0, chain.n_states - 1, min(range(chain.n_states), key=chain.weights.__getitem__)})
        assert len(trio) <= START_BLOCK_ENTRIES // chain.n_states
        tau = chain.mixing_time(0.25, trio)
        assert chain._orbits is None
        assert tau == reference_mixing_time(chain, 0.25, trio)
        chain.mixing_time(0.25)
        assert chain._orbits is not None

    def test_no_starts_is_zero(self):
        chain = ExactChain(star_graph(3), ChainParams(RC, F(2), F(1)))
        assert chain.mixing_time(0.25, []) == 0

    def test_start_matrix_limit_checked_before_the_operator(self):
        chain = ExactChain(bipartition_of(path_graph(17)), ChainParams(RWS, F(1, 2), F(1)))
        assert chain.n_states ** 2 > START_MATRIX_LIMIT
        with pytest.raises(LimitExceededError, match="start matrix"):
            chain.mixing_time(0.25, list(range(chain.n_states)))
        assert chain._sparse is None

    def test_start_matrix_limit_admits_the_default_sweep(self):
        assert (1 << 12) * (1 << 12) <= START_MATRIX_LIMIT


class TestOperatorAndCongestionReferences:
    @pytest.mark.parametrize("lam,mu", PARAMS)
    def test_sparse_transition_is_the_reference_matrix(self, lam, mu, rng):
        cases = [(RWS, path_graph(6)), (RWS, complete_bipartite(2, 3)), (RC, cycle_graph(5)),
                 (RC, random_graph(rng, 5, 0.6)), (RWS, tree_with_cherries(rng, 4))]
        for family, g in cases:
            if g.m == 0:
                continue
            chain = ExactChain(target_for(family, g), ChainParams(family, lam, mu))
            got, ref = chain.sparse_transition(), reference_sparse_transition(chain)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr)), (family, g, attr)

    @pytest.mark.parametrize("family,g", [(RC, cycle_graph(13)), (RWS, path_graph(9)),
                                          (RC, star_graph(6)), (RWS, cycle_graph(8))])
    def test_congestion_matches_fraction_loop(self, family, g):
        for lam, mu in PARAMS[:2]:
            params = ChainParams(family, lam, mu)
            target = target_for(family, g)
            res = congestion(target, natural_ordering(g), params)
            assert (res.rho, res.argmax) == reference_congestion(target, natural_ordering(g), params)


class TestOneRank:
    """ExactChain tracks the rank of the matrix ChainParams.encode gives."""

    def test_statistic_is_the_scratch_rank_for_both_families(self, rng):
        from rankpoly.gf2 import bipartite_adjacency, incidence, rank

        for case in range(12):
            g = random_tree(rng, rng.randint(2, 6)) if case % 3 else cycle_graph(rng.choice([4, 6]))
            b = bipartition_of(g)
            for family, matrix in ((RWS, lambda s: bipartite_adjacency(b, s)), (RC, lambda s: incidence(g, s))):
                chain = ExactChain(target_for(family, g), ChainParams(family, F(2, 5), F(7, 3)))
                assert chain.statistic == [rank(matrix(s)) for s in range(chain.n_states)]

    def test_rc_weights_are_q_to_the_components(self):
        g = cycle_graph(5)
        chain = ExactChain(g, ChainParams(RC, F(3), F(2, 7)))
        weights = [F(3) ** components(g, s)[0] * F(2, 7) ** bin(s).count("1") for s in range(chain.n_states)]
        assert chain.pi_exact() == [w / sum(weights) for w in weights]

    def test_rws_on_a_plain_graph_raises(self):
        with pytest.raises(ValueError, match="bipartite"):
            ExactChain(star_graph(3), ChainParams(RWS, F(1, 2), F(1)))


class TestArrayCode:
    """The whole-array congestion tables, pi and float steps against loops."""

    @pytest.mark.parametrize("family,g", [(RC, cycle_graph(9)), (RWS, path_graph(10)),
                                          (RC, complete_graph(4)), (RWS, complete_bipartite(2, 4))])
    def test_congestion_exact_past_int64(self, family, g, rng):
        params = ChainParams(family, F(10**40, 3), F(3**30, 2))
        target = target_for(family, g)
        perm = list(range(g.m))
        rng.shuffle(perm)
        for ordering in (natural_ordering(g), linear_width_of_ordering(g, perm)):
            res = congestion(target, ordering, params)
            assert res.rho.denominator > 2**63 or res.rho.numerator > 2**63
            assert (res.rho, res.argmax) == reference_congestion(target, ordering, params)

    @pytest.mark.parametrize("family,g", [(RC, star_graph(7)), (RWS, star_graph(8)), (RC, cycle_graph(13)),
                                          (RWS, cycle_graph(12)), (RWS, complete_bipartite(2, 3))])
    def test_congestion_first_of_tied_maxima(self, family, g):
        params = ChainParams(family, F(1), F(1))
        target = target_for(family, g)
        o = natural_ordering(g)
        res = congestion(target, o, params)
        assert (res.rho, res.argmax) == reference_congestion(target, o, params)

    @pytest.mark.parametrize("family,g,lam,mu", [
        (RWS, path_graph(9), F(2**300, 3), F(2**150, 5)),    # weights past 2^1100
        (RC, cycle_graph(7), F(1, 2**600), F(2**170, 7)),    # q^kappa past 2^4000
        (RWS, star_graph(6), F(1, 3**700), F(5**400, 3)),    # pi entries far below 1e-308
        (RC, star_graph(5), F(3), F(2, 7)),
    ])
    def test_pi_float_is_float_of_fraction(self, family, g, lam, mu):
        chain = ExactChain(target_for(family, g), ChainParams(family, lam, mu))
        assert max(chain.weights) > 2**1100 or lam == 3
        ref = np.array([float(F(w, chain.total_weight)) for w in chain.weights])
        assert chain.pi_float().tobytes() == ref.tobytes()

    @pytest.mark.parametrize("lam,mu", PARAMS)
    def test_tv_curve_is_the_reference_loop(self, lam, mu):
        for family, g in ((RWS, path_graph(7)), (RC, cycle_graph(6)), (RC, star_graph(5))):
            chain = ExactChain(target_for(family, g), ChainParams(family, lam, mu))
            p, pi = chain.sparse_transition(), chain.pi_float()
            for start in chain.trio():
                dist = np.zeros(chain.n_states)
                dist[start] = 1.0
                ref = [0.5 * float(np.abs(dist - pi).sum())]
                for _ in range(60):
                    dist = dist @ p
                    ref.append(0.5 * float(np.abs(dist - pi).sum()))
                assert chain.tv_curve(start, tmax=60) == ref

    def test_congestion_limit_checked_before_any_table(self):
        chain = ExactChain(path_graph(15), ChainParams(RC, F(2), F(1)))
        assert chain.m == CONGESTION_LIMIT + 1
        with pytest.raises(LimitExceededError, match="congestion"):
            chain.congestion(natural_ordering(path_graph(15)))

    @pytest.mark.parametrize("extra", [[], ["--starts", "trio"], ["--empirical", "2000"]])
    def test_mix_walks_the_subsets_once(self, monkeypatch, capsys, tmp_path, extra):
        from rankpoly import mixing
        from rankpoly.cli import main

        walks = []
        original = mixing.gray_ranks

        def counted(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(mixing, "gray_ranks", counted)
        path = tmp_path / "t.txt"
        path.write_text("0 1\n1 2\n1 3\n3 4\n4 5\n")
        argv = ["mix", "--graph", str(path), "--family", "rws", "--lambda", "1/2", "--mu", "1"]
        assert main(argv + extra) == 0
        assert len(walks) == 1
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        g = Graph(6, ((0, 1), (1, 2), (1, 3), (3, 4), (4, 5)))
        params = ChainParams(RWS, F(1, 2), F(1))
        assert summary["rho"] == str(reference_congestion(bipartition_of(g), dfs_tree_ordering(g), params)[0])
