"""Bit-packed rank, adjacency builders, flip maintenance, left null space."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from rankpoly.gf2 import (
    F2Matrix,
    RankProfile,
    adjacency,
    adjacency_toggles,
    bipartite_adjacency,
    bipartite_adjacency_toggles,
    gray_ranks,
    identity_matrix,
    incidence,
    incidence_toggles,
    left_nullspace,
    rank,
    rank_of_rows,
    sample_left_nullspace,
    vector_matrix_product,
    zero_matrix,
)
from rankpoly.graphs import Graph, bipartition_of, complete_graph, path_graph
from rankpoly.rng import SplitMix64
from conftest import random_bipartite, random_connected_w2, random_graph


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = tuple(draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows))
    return F2Matrix(rows, cols, data)


class TestRank:
    def test_zero_matrix(self):
        assert rank(zero_matrix(3, 5)) == 0

    def test_identity(self):
        for n in (1, 4, 7):
            assert rank(identity_matrix(n)) == n

    def test_all_ones_2x2(self):
        assert rank(F2Matrix(2, 2, (0b11, 0b11))) == 1

    def test_empty_shapes(self):
        assert rank(zero_matrix(0, 4)) == 0
        assert rank(zero_matrix(4, 0)) == 0

    def test_trailing_bits_rejected(self):
        with pytest.raises(ValueError):
            F2Matrix(1, 2, (0b100,))


class TestAdjacency:
    def test_empty_subset_is_zero(self):
        g = complete_graph(4)
        assert all(r == 0 for r in adjacency(g, 0).data)

    def test_triangle_rank_two(self):
        assert rank(adjacency(complete_graph(3))) == 2

    def test_bipartite_path3(self):
        b = bipartition_of(path_graph(3))
        mat = bipartite_adjacency(b)
        assert (mat.rows, mat.cols) == (2, 1)
        assert mat.data == (1, 1)
        assert rank(mat) == 1

    def test_symmetric_zero_diagonal(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            s = rng.randrange(1 << g.m) if g.m else 0
            mat = adjacency(g, s)
            for i in range(g.n):
                assert not mat.entry(i, i)
                for j in range(g.n):
                    assert mat.entry(i, j) == mat.entry(j, i)

    def test_even_rank_of_adjacency(self, rng):
        # symmetric zero-diagonal matrices have even rank over any field
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 8))
            s = rng.randrange(1 << g.m) if g.m else 0
            assert rank(adjacency(g, s)) % 2 == 0

    def test_bipartite_rank_doubles(self, rng):
        for _ in range(50):
            b = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4))
            s = rng.randrange(1 << b.m) if b.m else 0
            assert 2 * rank(bipartite_adjacency(b, s)) == rank(adjacency(b.graph, s))


class TestFlipEntry:
    def test_single_cell(self):
        prof = RankProfile(zero_matrix(1, 1))
        assert prof.flip_entry(0, 0) == 1
        assert prof.flip_entry(0, 0) == 0

    def test_out_of_range(self):
        prof = RankProfile(zero_matrix(2, 2))
        with pytest.raises(IndexError):
            prof.flip_entry(2, 0)

    def test_thousand_random_flips_match_fresh_elimination(self, rng):
        prof = RankProfile(zero_matrix(6, 6))
        for _ in range(1000):
            r = prof.flip_entry(rng.randrange(6), rng.randrange(6))
            assert r == rank_of_rows(list(prof.rows))

    def test_rank_moves_by_at_most_one(self, rng):
        prof = RankProfile(zero_matrix(5, 7))
        prev = 0
        for _ in range(500):
            r = prof.flip_entry(rng.randrange(5), rng.randrange(7))
            assert abs(r - prev) <= 1
            prev = r

    @given(small_matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_flip_involution(self, mat, data):
        prof = RankProfile(mat)
        before_rank = prof.rank
        before_rows = list(prof.rows)
        i = data.draw(st.integers(0, mat.rows - 1))
        j = data.draw(st.integers(0, mat.cols - 1))
        prof.flip_entry(i, j)
        assert prof.flip_entry(i, j) == before_rank
        assert list(prof.rows) == before_rows
        assert len(prof.left_nullspace_basis()) == mat.rows - before_rank

    def test_paranoid_mode_runs(self):
        prof = RankProfile(zero_matrix(4, 4), paranoid=True)
        for i in range(4):
            prof.flip_entry(i, (i * 3) % 4)

    def test_profile_starts_from_nonzero_matrix(self, rng):
        for _ in range(30):
            mat = F2Matrix(
                4, 5, tuple(rng.randrange(1 << 5) for _ in range(4))
            )
            prof = RankProfile(mat)
            assert prof.rank == rank(mat)

    def test_reduced_rows_span_the_row_space(self, rng):
        for _ in range(30):
            mat = F2Matrix(5, 6, tuple(rng.randrange(1 << 6) for _ in range(5)))
            prof = RankProfile(mat)
            for _ in range(10):
                prof.flip_entry(rng.randrange(5), rng.randrange(6))
            reduced = [r for r in prof.R if r]
            # same span: appending either set to the other adds no rank
            assert rank_of_rows(list(prof.rows) + reduced) == prof.rank
            assert rank_of_rows(reduced) == prof.rank


@st.composite
def rank_one_cases(draw):
    """(M, u, v): a random matrix up to 8 x 8 or the incidence matrix of a
    random graph on a random edge subset, with nonzero bitmasks u, v."""
    if draw(st.booleans()):
        rows = draw(st.integers(1, 8))
        cols = draw(st.integers(1, 8))
        mat = F2Matrix(rows, cols, tuple(draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows)))
    else:
        n = draw(st.integers(2, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        g = Graph(n, tuple(edges))
        mat = incidence(g, draw(st.integers(0, (1 << g.m) - 1)))
    u = draw(st.integers(1, (1 << mat.rows) - 1))
    v = draw(st.integers(1, (1 << mat.cols) - 1))
    return mat, u, v


def plus_outer(mat: F2Matrix, u: int, v: int) -> F2Matrix:
    """M + u v^T, entry by entry."""
    return F2Matrix(mat.rows, mat.cols, tuple(r ^ (v if u >> i & 1 else 0) for i, r in enumerate(mat.data)))


def profile_state(prof: RankProfile):
    return (list(prof.rows), list(prof.R), list(prof.T), list(prof.pivot_of),
            dict(prof.pivot_owner), list(prof.null_rows), prof.rank)


class TestRankOneUpdate:
    @given(rank_one_cases())
    @settings(max_examples=300, deadline=None)
    def test_probe_matches_scratch_rank_and_changes_nothing(self, case):
        mat, u, v = case
        prof = RankProfile(mat)
        before = profile_state(prof)
        assert prof.delta_if_flip(u, v) == rank(plus_outer(mat, u, v)) - rank(mat)
        assert profile_state(prof) == before

    @given(rank_one_cases())
    @settings(max_examples=300, deadline=None)
    def test_flip_matches_entry_flips(self, case):
        mat, u, v = case
        prof, by_entries = RankProfile(mat), RankProfile(mat)
        r = prof.flip(u, v)
        for i in range(mat.rows):
            for j in range(mat.cols):
                if u >> i & 1 and v >> j & 1:
                    by_entries.flip_entry(i, j)
        assert prof.matrix() == by_entries.matrix() == plus_outer(mat, u, v)
        assert r == prof.rank == rank(prof.matrix())
        assert len(prof.left_nullspace_basis()) == mat.rows - r

    def test_probe_predicts_every_update_of_a_long_sequence(self, rng):
        prof = RankProfile(zero_matrix(7, 8))
        for _ in range(1000):
            u, v = rng.randrange(1, 1 << 7), rng.randrange(1, 1 << 8)
            before = prof.rank
            d = prof.delta_if_flip(u, v)
            assert prof.flip(u, v) == before + d == rank_of_rows(list(prof.rows))

    def test_null_rows_are_the_zero_rows_after_every_update(self, rng):
        for nrows, ncols in ((6, 6), (9, 4), (3, 10)):
            prof = RankProfile(F2Matrix(nrows, ncols, tuple(rng.randrange(1 << ncols) for _ in range(nrows))))
            for step in range(400):
                assert sorted(prof.null_rows) == [k for k in range(nrows) if prof.R[k] == 0], step
                assert len(prof.null_rows) == nrows - prof.rank
                if step % 3:
                    prof.flip(rng.randrange(1, 1 << nrows), rng.randrange(1, 1 << ncols))
                else:
                    prof.flip_entry(rng.randrange(nrows), rng.randrange(ncols))

    def test_out_of_range(self):
        prof = RankProfile(zero_matrix(2, 3))
        for u, v in ((0b100, 1), (1, 0b1000), (-1, 1), (1, -2)):
            with pytest.raises(IndexError):
                prof.flip(u, v)
            with pytest.raises(IndexError):
                prof.delta_if_flip(u, v)

    def test_paranoid_mode_checks_flip(self, rng):
        prof = RankProfile(zero_matrix(4, 4), paranoid=True)
        for _ in range(50):
            prof.flip(rng.randrange(1, 16), rng.randrange(1, 16))
        prof.rank += 1  # corrupt the maintained rank
        with pytest.raises(AssertionError, match="from-scratch"):
            prof.flip(1, 1)


@st.composite
def walk_cases(draw):
    """(nrows, ncols, toggles) with at most 10 edges: one random update per
    edge, two per edge, or the incidence toggles of a random graph."""
    kind = draw(st.sampled_from(["single", "paired", "incidence"]))
    if kind == "incidence":
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
        g = Graph(n, tuple(edges))
        return n, g.m, incidence_toggles(g)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    update = st.tuples(st.integers(1, (1 << nrows) - 1), st.integers(1, (1 << ncols) - 1))
    per_edge = 1 if kind == "single" else 2
    toggles = draw(st.lists(st.tuples(*[update] * per_edge), max_size=10))
    return nrows, ncols, toggles


def scratch_rank(nrows: int, toggles, subset: int) -> int:
    rows = [0] * nrows
    for e, updates in enumerate(toggles):
        if subset >> e & 1:
            for u, v in updates:
                for i in range(nrows):
                    if u >> i & 1:
                        rows[i] ^= v
    return rank_of_rows(rows)


class TestGrayRanks:
    @given(walk_cases())
    @settings(max_examples=200, deadline=None)
    def test_walk_visits_every_subset_once_at_its_rank(self, case):
        nrows, ncols, toggles = case
        walk = list(gray_ranks(nrows, ncols, toggles))
        subsets = [s for s, _ in walk]
        assert sorted(subsets) == list(range(1 << len(toggles)))
        assert subsets == [t ^ (t >> 1) for t in range(1 << len(toggles))]
        for s, r in walk:
            assert r == scratch_rank(nrows, toggles, s)

    def test_encodings_toggle_the_matrices_of_the_same_name(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 6))
            b = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4))
            for build, toggles, rows, cols in (
                (lambda s: adjacency(g, s), adjacency_toggles(g), g.n, g.n),
                (lambda s: incidence(g, s), incidence_toggles(g), g.n, g.m),
                (lambda s: bipartite_adjacency(b, s), bipartite_adjacency_toggles(b),
                 len(b.side_u), len(b.side_w)),
            ):
                for s, r in gray_ranks(rows, cols, toggles):
                    assert r == rank(build(s))


class TestLeftNullspace:
    def test_identity_has_trivial_nullspace(self):
        assert left_nullspace(identity_matrix(4)) == []
        gen = SplitMix64(1)
        assert sample_left_nullspace(identity_matrix(4), gen) == 0

    def test_zero_matrix_full_nullspace(self):
        basis = left_nullspace(zero_matrix(3, 2))
        assert len(basis) == 3
        assert rank_of_rows(list(basis)) == 3

    def test_all_ones_2x2(self):
        assert left_nullspace(F2Matrix(2, 2, (0b11, 0b11))) == [0b11]

    @given(small_matrices())
    @settings(max_examples=80, deadline=None)
    def test_basis_spans_annihilator(self, mat):
        basis = left_nullspace(mat)
        assert len(basis) == mat.rows - rank(mat)
        for vec in basis:
            assert vector_matrix_product(vec, mat) == 0
        assert rank_of_rows(list(basis)) == len(basis)

    def test_sampling_stays_in_nullspace_and_covers(self):
        mat = F2Matrix(2, 2, (0b11, 0b11))
        gen = SplitMix64(7)
        seen = set()
        for _ in range(50):
            v = sample_left_nullspace(mat, gen)
            assert vector_matrix_product(v, mat) == 0
            seen.add(v)
        assert seen == {0, 0b11}


class TestDegreeOneCriterion:
    def test_connected_w2_rank_dichotomy(self, rng):
        # connected, W degrees <= 2: full rank iff some W vertex has degree 1
        for _ in range(100):
            nu = rng.randint(2, 5)
            b = random_connected_w2(rng, nu, rng.randint(nu - 1, nu + 2))
            deg = b.graph.degrees()
            has_deg1 = any(deg[w] == 1 for w in b.side_w)
            rk = rank(bipartite_adjacency(b))
            nu = len(b.side_u)
            assert rk == (nu if has_deg1 else nu - 1)
