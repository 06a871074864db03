"""Single-bond-flip chains: step law, caching, determinism, the BIS bridge."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from rankpoly.chains import (
    RC,
    RWS,
    ChainParams,
    ChainState,
    bis_sample_bridge,
    run,
)
from rankpoly.gf2 import bipartite_adjacency, left_nullspace, rank
from rankpoly.graphs import (
    BipartiteGraph,
    bipartition_of,
    complete_graph,
    components,
    cycle_graph,
    path_graph,
    star_graph,
    subset_from_edges,
)
from rankpoly.mixing import ExactChain, empirical_tv
from rankpoly.rng import SplitMix64
from conftest import random_bipartite, random_graph, random_tree


def reference_trace(g, params, steps, seed, initial):
    """States after each step of the chain as specified: the Fraction weight
    ratio with the statistic recomputed from scratch, and rng.bernoulli."""
    graph = g.graph if isinstance(g, BipartiteGraph) else g

    def statistic(s):
        if params.family == RWS:
            return rank(bipartite_adjacency(g, s))
        return components(graph, s)[0]

    gen = SplitMix64(seed)
    s, trace = initial, []
    for _ in range(steps):
        t = s ^ (1 << gen.randrange(graph.m))
        ratio = params.lam ** (statistic(t) - statistic(s)) * params.mu ** (1 if t > s else -1)
        if gen.bernoulli(F(1, 2) * min(F(1), ratio)):
            s = t
        trace.append(s)
    return trace


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            ChainParams(RWS, F(0), F(1))
        with pytest.raises(ValueError, match="positive"):
            ChainParams(RC, F(1), F(-1))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            ChainParams("glauber", F(1), F(1))

    def test_rws_needs_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            ChainState(complete_graph(3), ChainParams(RWS, F(1), F(1)))


class TestStepLaw:
    def test_k2_both_families_are_uniform_coin(self):
        # acceptance ratio 1 and laziness 1/2: P = [[1/2,1/2],[1/2,1/2]]
        g = path_graph(2)
        for fam, target in ((RWS, bipartition_of(g)), (RC, g)):
            chain = ExactChain(target, ChainParams(fam, F(1), F(1)))
            for h in (0, 1):
                for hp in (0, 1):
                    assert chain.transition_prob(h, hp) == F(1, 2)

    def test_tiny_lam_rejects_rank_increase(self):
        b = bipartition_of(star_graph(4))
        chain = ExactChain(b, ChainParams(RWS, F(1, 10**6), F(1)))
        # from the empty set, adding any edge raises the rank
        assert chain.transition_prob(0, 1) == F(1, 2 * 4) * F(1, 10**6)

    def test_star6_acceptance_frequencies_within_3_sigma(self):
        g = star_graph(6)
        b = bipartition_of(g)
        params = ChainParams(RWS, F(1, 2), F(1))
        chain = ExactChain(b, params)
        start = subset_from_edges(g, [(0, 1), (0, 2)])
        trials = 100_000
        gen = SplitMix64(7)  # deterministic; a real bias shows up at z >> 3
        hits: dict[int, int] = {}
        for _ in range(trials):
            state = ChainState(b, params, start)
            state.step(gen)
            hits[state.subset] = hits.get(state.subset, 0) + 1
        for target in {start} | {start ^ (1 << e) for e in range(g.m)}:
            p = float(chain.transition_prob(start, target))
            got = hits.get(target, 0) / trials
            sigma = (p * (1 - p) / trials) ** 0.5
            assert abs(got - p) <= 3 * sigma + 1e-9, (target, got, p)

    def test_rc_delta_kappa_cases(self):
        g = complete_graph(3)
        params = ChainParams(RC, F(2), F(1))
        two_edges = subset_from_edges(g, [(0, 1), (0, 2)])
        state = ChainState(g, params, two_edges)
        # adding the closing edge keeps the component count
        closing = next(i for i, e in enumerate(g.edges) if e == (1, 2))
        assert state.rc_delta_kappa(closing) == 0
        # removing a bridge splits
        bridge = next(i for i, e in enumerate(g.edges) if e == (0, 1))
        assert state.rc_delta_kappa(bridge) == 1
        # removing a cycle edge does not
        full = ChainState(g, params, g.full_subset())
        assert full.rc_delta_kappa(bridge) == 0
        # adding an edge between separated components merges
        empty = ChainState(g, params, 0)
        assert empty.rc_delta_kappa(bridge) == -1


class TestCachedStatistics:
    def test_debug_run_rws(self):
        b = bipartition_of(cycle_graph(6))
        run(b, ChainParams(RWS, F(1, 2), F(2)), 10_000, seed=5, debug_check=True)

    def test_debug_run_rc(self):
        run(cycle_graph(5), ChainParams(RC, F(3), F(1, 2)), 10_000, seed=6, debug_check=True)

    def test_tree_rank_equals_matching_along_run(self, rng):
        from rankpoly.graphs import max_matching

        t = random_tree(rng, 7)
        b = bipartition_of(t)
        params = ChainParams(RWS, F(1, 2), F(1))
        state = ChainState(b, params, 0)
        gen = SplitMix64(11)
        for _ in range(2000):
            state.step(gen)
            assert state.statistic == max_matching(t, state.subset)


class TestDifferential:
    WEIGHTS = (F(3), F(2, 7), F(1, 2), F(1), F(5, 3))

    def test_run_matches_reference_stepper(self, rng):
        for case in range(24):
            if case % 2:
                family, g = RC, random_graph(rng, rng.randrange(2, 7), 0.6)
            else:
                family, g = RWS, random_bipartite(rng, rng.randrange(1, 4), rng.randrange(1, 4), 0.7)
            if g.m == 0:
                continue
            params = ChainParams(family, rng.choice(self.WEIGHTS), rng.choice(self.WEIGHTS))
            initial, seed = rng.randrange(1 << g.m), rng.randrange(1 << 32)
            res = run(g, params, 300, seed, initial, thin=1)
            assert res.samples == reference_trace(g, params, 300, seed, initial), (case, params)
            assert res.final.statistic == res.final.statistic_from_scratch()


class TestRun:
    def test_zero_steps_keeps_initial(self):
        b = bipartition_of(path_graph(3))
        res = run(b, ChainParams(RWS, F(1), F(1)), 0, seed=1, initial=0b10)
        assert res.final.subset == 0b10

    def test_same_seed_reproduces(self):
        g = cycle_graph(5)
        p = ChainParams(RC, F(2), F(1))
        a = run(g, p, 400, seed=9, thin=7)
        b = run(g, p, 400, seed=9, thin=7)
        assert a.samples == b.samples and a.final.subset == b.final.subset

    def test_different_seeds_diverge(self):
        g = cycle_graph(5)
        p = ChainParams(RC, F(2), F(1))
        a = run(g, p, 400, seed=9, thin=7)
        b = run(g, p, 400, seed=10, thin=7)
        assert a.samples != b.samples

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            run(path_graph(2), ChainParams(RC, F(1), F(1)), -1, seed=0)

    @pytest.mark.parametrize("name", ["burnin", "thin"])
    def test_negative_burnin_and_thin_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be nonnegative"):
            run(path_graph(2), ChainParams(RC, F(1), F(1)), 10, seed=0, **{name: -3})

    @pytest.mark.parametrize("family", [RWS, RC])
    def test_rejected_steps_leave_the_profile_untouched(self, family, rng):
        g = random_bipartite(rng, 4, 4, 0.7)
        state = ChainState(g if family == RWS else g.graph, ChainParams(family, F(3), F(2, 7)))
        gen = SplitMix64(3)
        rejected = 0
        for _ in range(500):
            prof = state.profile
            before = (list(prof.rows), list(prof.R), list(prof.T), list(prof.pivot_of),
                      dict(prof.pivot_owner), prof.rank, state.subset)
            accepts = state.accepts
            state.step(gen)
            if state.accepts == accepts:
                rejected += 1
                assert (prof.rows, prof.R, prof.T, prof.pivot_of, prof.pivot_owner,
                        prof.rank, state.subset) == before
        assert rejected > 100


class FirstWord(SplitMix64):
    """A generator whose first ``next_u64()`` gives ``word``."""

    def __init__(self, word, seed=0):
        super().__init__(seed)
        self.word = word

    def next_u64(self):
        if self.word is None:
            return super().next_u64()
        word, self.word = self.word, None
        return word


HUGE = 2**70 + 1


class TestGates:
    """A word the gate decides gets the verdict randrange(den) < num gives
    for every rank change d."""

    GRID = [
        (family, lam, mu)
        for family in (RWS, RC)
        for lam, mu in ((F(1, 2), F(1)), (F(2), F(1)), (F(3), F(2, 7)), (F(1, 2), F(1, HUGE)),
                        (F(3), F(HUGE, 2)), (F(5, 3), F(7, 11)), (F(2**63 + 1, 3), F(1)), (F(1), F(1)))
    ]

    @staticmethod
    def words(fractions, gate):
        cuts = {0, 2**64 - 1, *gate}
        for num, den in fractions:
            s = 64 - (den - 1).bit_length()
            if s >= 0:
                cuts |= {num << s, den << s}
        return sorted({w + o for w in cuts for o in (-1, 0, 1) if 0 <= w + o < 2**64})

    @pytest.mark.parametrize("family,lam,mu", GRID)
    def test_gate_verdict_is_the_draw(self, family, lam, mu):
        params = ChainParams(family, lam, mu)
        for adding in (0, 1):
            fractions = [row[adding] for row in params.accept]
            lo, hi, top = params.gates[adding]
            if max(den for _, den in fractions) > 2**64:
                assert (lo, hi, top) == (0, 0, 0)
            for x in self.words(fractions, (lo, hi, top)):
                verdict = True if x < lo else False if hi <= x < top else None
                for num, den in fractions:
                    draw = FirstWord(x, seed=x % 997).randrange(den) < num
                    assert verdict in (None, draw), (adding, x, num, den)

    def test_gates_at_the_bis_point(self):
        # acceptance 1/2, 1/2, 1/4 when adding: the word decides 3 steps in 4
        params = ChainParams(RWS, F(1, 2), F(1))
        assert params.gates[1] == (2**62, 2**63, 2**64)

    def test_gates_for_draws_past_one_word(self):
        # adding at d = 1 accepts with 1/(4 (2^70 + 1)); every removal with 1/2
        params = ChainParams(RWS, F(1, 2), F(1, HUGE))
        assert params.gates == ((2**63, 2**63, 2**64), (0, 0, 0))


def stepped(g, params, steps, seed, initial, burnin, thin):
    """Samples, final state and accepts of ``run`` by one ``step`` at a time,
    with the statistic checked after every step."""
    state = ChainState(g, params, initial)
    gen = SplitMix64(seed)
    samples = []
    for t in range(steps):
        state.step(gen)
        assert state.statistic == state.statistic_from_scratch()
        if thin > 0 and t >= burnin and (t - burnin) % thin == thin - 1:
            samples.append(state.subset)
    return samples, state.subset, state.accepts, state.steps


class TestRunSchedule:
    SCHEDULES = [(0, 0, 0), (0, 5, 3), (120, 0, 0), (120, 0, 1), (120, 10, 7), (50, 0, 60),
                 (50, 50, 5), (50, 80, 3), (97, 3, 47), (100, 0, 100), (100, 1, 99)]

    @pytest.mark.parametrize("debug_check", [False, True])
    @pytest.mark.parametrize("steps,burnin,thin", SCHEDULES)
    def test_run_equals_single_steps(self, steps, burnin, thin, debug_check, rng):
        for family, lam, mu in ((RWS, F(1, 2), F(1)), (RC, F(3), F(HUGE, 2)), (RWS, F(3), F(2, 7))):
            b = random_bipartite(rng, 3, 3, 0.7)
            if b.m == 0:
                continue
            g = b if family == RWS else b.graph
            params = ChainParams(family, lam, mu)
            initial, seed = rng.randrange(1 << b.m), rng.randrange(1 << 32)
            res = run(g, params, steps, seed, initial, burnin, thin, debug_check)
            got = (res.samples, res.final.subset, res.final.accepts, res.final.steps)
            assert got == stepped(g, params, steps, seed, initial, burnin, thin)

    def test_debug_check_names_the_first_bad_step(self, monkeypatch):
        monkeypatch.setattr(ChainState, "statistic_from_scratch", lambda self: self.statistic + (self.steps == 37))
        with pytest.raises(AssertionError, match="diverged at step 36"):
            run(cycle_graph(5), ChainParams(RC, F(2), F(1)), 100, seed=1, thin=10, debug_check=True)


class TestRcEmpiricalDistribution:
    def test_triangle_q2_long_run_tv(self):
        g = complete_graph(3)
        params = ChainParams(RC, F(2), F(1))
        chain = ExactChain(g, params)
        res = run(g, params, 200_000, seed=31, burnin=2_000, thin=10)
        assert empirical_tv(chain, res.samples) < 0.02


class TestBisBridge:
    def test_empty_sample_gives_uniform_u(self):
        b = bipartition_of(path_graph(3))  # |U| = 2
        gen = SplitMix64(3)
        seen = {}
        for _ in range(8000):
            u, _ = bis_sample_bridge(b, 0, gen)
            seen[u] = seen.get(u, 0) + 1
        assert set(seen) == {0, 1, 2, 3}
        for v, c in seen.items():
            assert abs(c / 8000 - 0.25) < 0.03

    def test_k2_marginal_exactly_matches_share_counts(self):
        # P(u) = 2^k / #BIS via exhaustive mixture of nullspace laws
        b = bipartition_of(path_graph(2))
        weights = {}
        for s in range(2):
            w = F(1, 2) ** rank(bipartite_adjacency(b, s))
            for u in left_nullspace_elements(bipartite_adjacency(b, s)):
                weights[u] = weights.get(u, F(0)) + w / (
                    2 ** len(left_nullspace(bipartite_adjacency(b, s)))
                )
        total = sum(weights.values())
        marginal = {u: w / total for u, w in weights.items()}
        assert marginal == {0: F(2, 3), 1: F(1, 3)}

    def test_p3_bridge_marginal_tv(self):
        b = bipartition_of(path_graph(3))
        params = ChainParams(RWS, F(1, 2), F(1))
        chain = ExactChain(b, params)
        pi = chain.pi_exact()
        # exact mixture marginal over u
        exact_marginal: dict[int, F] = {}
        for s in range(chain.n_states):
            mat = bipartite_adjacency(b, s)
            elems = left_nullspace_elements(mat)
            for u in elems:
                exact_marginal[u] = exact_marginal.get(u, F(0)) + pi[s] / len(elems)
        # 2^k / #BIS form, k = unblocked W-columns of the whole graph
        full = bipartite_adjacency(b)
        for u, prob in exact_marginal.items():
            blocked = 0
            for ui in range(full.rows):
                if (u >> ui) & 1:
                    blocked |= full.data[ui]
            k = len(b.side_w) - bin(blocked).count("1")
            assert prob == F(2**k, 5)
        # sampled distribution against the exact marginal
        gen = SplitMix64(17)
        weights = [float(p) for p in pi]
        import random as _random

        py = _random.Random(99)
        counts: dict[int, int] = {}
        trials = 100_000
        for _ in range(trials):
            s = py.choices(range(chain.n_states), weights=weights)[0]
            u, w_vec = bis_sample_bridge(b, s, gen)
            counts[u] = counts.get(u, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(u, 0) / trials - float(exact_marginal.get(u, F(0))))
            for u in range(4)
        )
        assert tv < 0.02

    def test_bridge_output_is_independent_set(self, rng):
        from conftest import random_bipartite

        gen = SplitMix64(23)
        for _ in range(20):
            b = random_bipartite(rng, 3, 3, 0.6)
            s = rng.randrange(1 << b.m) if b.m else 0
            u, w = bis_sample_bridge(b, s, gen)
            for ui, wi in b.oriented_edges():
                assert not ((u >> ui) & 1 and (w >> wi) & 1)


def left_nullspace_elements(mat) -> list[int]:
    """All vectors of the left null space, from a basis."""
    basis = left_nullspace(mat)
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


class TestEncoding:
    """The family is an encoding: ChainParams gives the tracked matrix and
    the weight of one unit of its rank."""

    def test_base_is_lam_for_rws_and_inverse_q_for_rc(self):
        assert ChainParams(RWS, F(3), F(2)).base == F(3)
        assert ChainParams(RC, F(3), F(2)).base == F(1, 3)

    def test_encode_gives_the_matrix_of_each_family(self, rng):
        from rankpoly.gf2 import incidence, toggled_profile

        for _ in range(20):
            b = random_bipartite(rng, rng.randrange(1, 4), rng.randrange(1, 4), 0.7)
            s = rng.randrange(1 << b.m) if b.m else 0
            for family, matrix in ((RWS, bipartite_adjacency(b, s)), (RC, incidence(b.graph, s))):
                graph, nrows, ncols, toggles = ChainParams(family, F(2), F(1)).encode(b)
                assert graph is b.graph
                assert toggled_profile(nrows, ncols, toggles, s).matrix() == matrix

    def test_rws_on_a_plain_graph_raises(self):
        with pytest.raises(ValueError, match="bipartite"):
            ChainParams(RWS, F(1), F(1)).encode(path_graph(3))

    def test_random_starts_hold_the_scratch_rank(self, rng):
        from rankpoly.gf2 import incidence

        for case in range(16):
            b = random_bipartite(rng, rng.randrange(1, 5), rng.randrange(1, 5), 0.6)
            if b.m == 0:
                continue
            family = (RWS, RC)[case % 2]
            matrix = (lambda s: bipartite_adjacency(b, s)) if family == RWS else (lambda s: incidence(b.graph, s))
            state = ChainState(b, ChainParams(family, F(2, 3), F(3, 2)), rng.randrange(1 << b.m))
            gen = SplitMix64(case)
            for _ in range(200):
                assert state.profile.rank == rank(matrix(state.subset))
                assert state.statistic == state.statistic_from_scratch()
                state.step(gen)
