"""Edge orderings, canonical paths, exact congestion, and mixing diagnostics.

State spaces are the 2^m edge subsets of a small graph.  Stationary weights
are kept as exact (scaled) integers so congestion and detailed balance are
exact rationals; only total-variation curves run in float64 (numpy pairwise
summation keeps the accumulated error around 1e-12, orders of magnitude
below any tolerance used on top of it).

The smallest-subtree-first orderings read their roots, parents and forest
test from ``graphs.bfs_forest``.

Work over the states runs on whole arrays indexed by state: congestion
tables are numpy arrays of Python ints (dtype object, so every sum and
product stays exact), and the transition operator is stored beside its
transpose, which is what each float step multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from .chains import ChainParams
from .gf2 import gray_ranks
from .graphs import (
    BipartiteGraph,
    EdgeSubset,
    Graph,
    LimitExceededError,
    TreeDecomposition,
    bfs_forest,
    twin_classes,
)

OPTIMAL_WIDTH_LIMIT = 9
CONGESTION_LIMIT = 13
CHAIN_STATE_LIMIT = 16
# start-by-state entries one tau sweep steps: every start orbit of the
# all-starts sweep at FULL_START_SWEEP_LIMIT edges
START_MATRIX_LIMIT = 1 << 24
# float64 entries of the start block tau steps at once, 256 KiB, which keeps
# the block in cache; the sweep's memory does not grow with its start orbits
START_BLOCK_ENTRIES = 1 << 15
FULL_START_SWEEP_LIMIT = 12


@dataclass(frozen=True)
class EdgeOrdering:
    """A permutation of the edge ids with its dangerous-vertex profile.

    ``perm[t]`` is the edge id placed at position t (0-indexed).
    ``profile[c]`` counts the vertices with an incident edge strictly before
    position c and another at or after position c; ``width`` is the maximum.
    """

    perm: tuple[int, ...]
    profile: tuple[int, ...]
    width: int


def linear_width_of_ordering(g: Graph, perm) -> EdgeOrdering:
    perm = tuple(perm)
    if sorted(perm) != list(range(g.m)):
        raise ValueError("not a permutation of the edge ids")
    first = [g.m] * g.n
    last = [-1] * g.n
    for pos, eid in enumerate(perm):
        for v in g.edges[eid]:
            if first[v] > pos:
                first[v] = pos
            if last[v] < pos:
                last[v] = pos
    # vertex v is dangerous at cut c iff first[v] < c <= last[v]
    diff = [0] * (g.m + 1)
    for v in range(g.n):
        if last[v] > first[v]:
            diff[first[v] + 1] += 1
            diff[last[v] + 1] -= 1
    profile = []
    cur = 0
    for c in range(g.m):
        cur += diff[c]
        profile.append(cur)
    width = max(profile, default=0)
    return EdgeOrdering(perm, tuple(profile), width)


def natural_ordering(g: Graph) -> EdgeOrdering:
    return linear_width_of_ordering(g, range(g.m))


def _forest_dfs_vertex_order(t: Graph) -> tuple[list[int], list[int]]:
    """(vertex discovery order, edge discovery order) of a smallest-subtree-
    first DFS over the ``bfs_forest`` of t.  Each component is rooted at its
    smallest vertex id; ties among equal subtree sizes break toward the
    smaller vertex id."""
    comps, parent = bfs_forest(t)
    if t.m != t.n - len(comps):
        raise ValueError("input has a cycle; expected a forest")
    size = [1] * t.n
    for order in comps:
        for x in reversed(order[1:]):
            size[parent[x]] += size[x]
    inc = t.incidence()
    vertex_order: list[int] = []
    edge_order: list[int] = []
    for order in comps:
        stack = [(order[0], -1)]  # (vertex, edge from its parent)
        while stack:
            x, via = stack.pop()
            vertex_order.append(x)
            if via != -1:
                edge_order.append(via)
            children = [(size[y], y, eid) for eid, y in inc[x] if parent[y] == x]
            stack += [(y, eid) for _, y, eid in sorted(children, reverse=True)]
    return vertex_order, edge_order


def dfs_tree_ordering(t: Graph) -> EdgeOrdering:
    """Edge discovery order of a DFS that explores smaller subtrees first;
    its width is at most floor(log2 n) on a tree."""
    _, edge_order = _forest_dfs_vertex_order(t)
    return linear_width_of_ordering(t, edge_order)


def treedec_ordering(g: Graph, td: TreeDecomposition) -> EdgeOrdering:
    """Order edges by the first bag containing them, bags visited in
    smallest-subtree-first DFS order; edge ids break ties inside a bag.
    The width is at most (decomposition width + 1) * (floor(log2 n) + 1).
    """
    td.validate_for(g)
    bag_order, _ = _forest_dfs_vertex_order(td.tree)
    bagsets = [set(b) for b in td.bags]
    assigned: list[tuple[int, int]] = []
    for eid, (u, v) in enumerate(g.edges):
        for pos, h in enumerate(bag_order):
            if u in bagsets[h] and v in bagsets[h]:
                assigned.append((pos, eid))
                break
        else:
            raise ValueError("decomposition does not cover all edges")
    perm = [eid for _, eid in sorted(assigned)]
    return linear_width_of_ordering(g, perm)


def optimal_linear_width(g: Graph) -> int:
    """Exact minimum width over all m! orderings (tiny instances only)."""
    if g.m > OPTIMAL_WIDTH_LIMIT:
        raise LimitExceededError(
            f"exhaustive width search limited to {OPTIMAL_WIDTH_LIMIT} edges"
        )
    best = g.m + 1
    for perm in permutations(range(g.m)):
        w = linear_width_of_ordering(g, perm).width
        if w < best:
            best = w
            if best == 0:
                break
    return best


# ---------------------------------------------------------------------------
# Canonical paths


def canonical_path(
    start: EdgeSubset, finish: EdgeSubset, ordering: EdgeOrdering
) -> list[EdgeSubset]:
    """States from start to finish, flipping the differing edges in ordering
    position order; consecutive states differ in exactly one edge."""
    states = [start]
    cur = start
    diff = start ^ finish
    for eid in ordering.perm:
        if (diff >> eid) & 1:
            cur ^= 1 << eid
            states.append(cur)
    return states


# ---------------------------------------------------------------------------
# Exact chains on the full state space


class ExactChain:
    """All 2^m states of a single-bond-flip chain with exact stationary
    weights; the transition operator is applied sparsely, never densified
    beyond one row per single-edge move.

    ``statistic[s]`` is the rank of the matrix ``ChainParams.encode`` gives
    for s, and ``weights[s]`` is base^rank * mu^|S| scaled to an integer.

    Swapping two twin vertices (equal non-empty open neighbourhoods) permutes
    the edges, keeps |S|, kappa(S) and the bipartite rank of S (twins share
    a neighbour, so they sit on one side of every bipartition), and so
    commutes with the transition operator and fixes pi.  ``orbit_labels``
    names each state's orbit under these swaps; states in one orbit have
    the same TV curve."""

    def __init__(self, g: Graph | BipartiteGraph, params: ChainParams):
        graph, nrows, ncols, toggles = params.encode(g)
        if graph.m > CHAIN_STATE_LIMIT:
            raise LimitExceededError(
                f"exact chain limited to {CHAIN_STATE_LIMIT} edges, got {graph.m}"
            )
        if graph.m == 0:
            raise ValueError("chain needs at least one edge")
        self.params = params
        self.graph = graph
        self.m = m = graph.m
        self.n_states = 1 << m
        stat = [0] * self.n_states
        for s, r in gray_ranks(nrows, ncols, toggles):
            stat[s] = r
        self.statistic = stat
        top = min(nrows, ncols)
        a, b = params.base.numerator, params.base.denominator
        c, d = params.mu.numerator, params.mu.denominator
        apow = [a**i for i in range(top + 1)]
        bpow = [b**i for i in range(top + 1)]
        cpow = [c**i for i in range(m + 1)]
        dpow = [d**i for i in range(m + 1)]
        self.weights = [
            apow[stat[s]] * bpow[top - stat[s]] * cpow[s.bit_count()] * dpow[m - s.bit_count()]
            for s in range(self.n_states)
        ]
        self.total_weight = sum(self.weights)
        self._sparse = None
        self._sparse_t = None
        self._orbits = None
        self._pi_float = None

    # -- exact quantities -----------------------------------------------------

    def pi_exact(self, state: EdgeSubset | None = None):
        if state is not None:
            return Fraction(self.weights[state], self.total_weight)
        return [Fraction(w, self.total_weight) for w in self.weights]

    def pi_min(self) -> Fraction:
        return Fraction(min(self.weights), self.total_weight)

    def transition_prob(self, h: EdgeSubset, hp: EdgeSubset) -> Fraction:
        """Exact single-step probability, lazy-Metropolis form."""
        if h == hp:
            return 1 - sum(
                (self.transition_prob(h, h ^ (1 << e)) for e in range(self.m)),
                Fraction(0),
            )
        diff = h ^ hp
        if diff & (diff - 1):
            return Fraction(0)
        w, wp = self.weights[h], self.weights[hp]
        return Fraction(min(w, wp), 2 * self.m * w)

    def verify_detailed_balance(self) -> bool:
        """pi(H) P(H,H') == pi(H') P(H',H) for every single-flip pair, exact."""
        for h in range(self.n_states):
            wh = self.weights[h]
            for e in range(self.m):
                hp = h ^ (1 << e)
                if hp < h:
                    continue
                lhs = Fraction(wh, self.total_weight) * self.transition_prob(h, hp)
                rhs = Fraction(self.weights[hp], self.total_weight) * self.transition_prob(hp, h)
                if lhs != rhs:
                    return False
        return True

    # -- float evolution ------------------------------------------------------

    def pi_float(self) -> np.ndarray:
        """pi as correctly rounded floats; computed once, read-only."""
        if self._pi_float is None:
            # int true division is correctly rounded, as float(Fraction) is
            z = self.total_weight
            pi = np.array([x / z for x in self.weights])
            pi.flags.writeable = False
            self._pi_float = pi
        return self._pi_float

    def sparse_transition(self) -> csr_matrix:
        """P(h, h ^ 2^e) = accept / m, with accept the chain's reduced
        (num, den) for the toggle's rank change and direction: the float
        num / (den m) is the correctly rounded min(w_h, w_h') / (2 m w_h).
        The holding mass 1 - sum_e P(h, h ^ 2^e) is subtracted in edge
        order.  The transpose is kept beside P: a step dist -> dist P is
        computed as P^T dist, the kernel ``dist @ P`` itself reaches."""
        if self._sparse is None:
            n, m = self.n_states, self.m
            states = np.arange(n)
            bits = 1 << np.arange(m)
            moves = states[:, None] ^ bits
            stat = np.array(self.statistic)
            d_rank = stat[moves] - stat[:, None]
            adding = (states[:, None] & bits) == 0
            table = np.array([[num / (den * m) for num, den in row] for row in self.params.accept])
            probs = table[d_rank + 1, adding.astype(np.intp)]
            stay = np.ones(n)
            for e in range(m):
                stay -= probs[:, e]
            rows = np.concatenate([np.repeat(states, m), states])
            cols = np.concatenate([moves.ravel(), states])
            vals = np.concatenate([probs.ravel(), stay])
            self._sparse = csr_matrix((vals, (rows, cols)), shape=(n, n))
            self._sparse_t = self._sparse.T
        return self._sparse

    def orbit_labels(self) -> np.ndarray:
        """The smallest state of each state's orbit under the twin swaps.

        Each pair of consecutive twins gives one generator, its induced state
        permutation computed by bit swaps over all states at once; labels
        then propagate by minimum along every generator, with pointer
        jumping, until nothing changes."""
        if self._orbits is None:
            states = np.arange(self.n_states, dtype=np.int64)
            edge_id = {frozenset(e): i for i, e in enumerate(self.graph.edges)}
            inc = self.graph.incidence()
            images = []
            for verts in twin_classes(self.graph):
                for u, v in zip(verts, verts[1:]):
                    if not inc[u]:
                        continue  # isolated twins touch no edge
                    image = states.copy()
                    for e, x in inc[u]:
                        f = edge_id[frozenset((v, x))]
                        swap = ((states >> e) ^ (states >> f)) & 1
                        image ^= (swap << e) | (swap << f)
                    images.append(image)
            labels = states
            while True:
                before = labels
                for image in images:
                    labels = np.minimum(labels, labels[image])
                labels = labels[labels]
                if np.array_equal(labels, before):
                    break
            self._orbits = labels
        return self._orbits

    def tv_curve(
        self,
        start: EdgeSubset,
        eps: float | None = None,
        tmax: int = 1_000_000,
    ) -> list[float]:
        """Total-variation distance to stationarity after 0..t steps from a
        point start, stopping when <= eps (if given) or at tmax."""
        self.sparse_transition()
        pt = self._sparse_t
        pi = self.pi_float()
        dist = np.zeros(self.n_states)
        dist[start] = 1.0
        curve = [0.5 * float(np.abs(dist - pi).sum())]
        while len(curve) <= tmax:
            dist = pt @ dist
            curve.append(0.5 * float(np.abs(dist - pi).sum()))
            if eps is not None and curve[-1] <= eps:
                break
        return curve

    def trio(self) -> list[EdgeSubset]:
        """The canonical starts {empty, full, minimum-weight}, sorted."""
        worst = min(range(self.n_states), key=lambda s: self.weights[s])
        return sorted({0, self.n_states - 1, worst})

    def default_starts(self) -> list[EdgeSubset]:
        if self.m <= FULL_START_SWEEP_LIMIT:
            return list(range(self.n_states))
        return self.trio()

    def mixing_time(
        self,
        eps: float,
        starts: list[EdgeSubset] | None = None,
        tmax: int = 1_000_000,
    ) -> int:
        """max over starts of min{t : TV(P^t(start,.), pi) <= eps}.

        By default sweeps every state as a start for m <= 12, else the
        canonical trio {empty, full, minimum-weight}.  When the distinct
        starts fill more than one block of START_BLOCK_ENTRIES entries, each
        is replaced by its orbit label, so one start per twin orbit is
        stepped; the number stepped times the state count is checked against
        START_MATRIX_LIMIT.  The starts are stepped in blocks, and a block
        drops a row as soon as that start has mixed.
        """
        if starts is None:
            starts = self.default_starts()
        reps = np.unique(np.asarray(starts, dtype=np.int64))
        rows = max(1, START_BLOCK_ENTRIES // self.n_states)
        if len(reps) > rows:
            reps = np.unique(self.orbit_labels()[reps])
        if len(reps) * self.n_states > START_MATRIX_LIMIT:
            raise LimitExceededError(
                f"tau over {len(reps)} start orbits of {self.n_states} states exceeds "
                f"the {START_MATRIX_LIMIT}-entry start matrix limit"
            )
        self.sparse_transition()
        pi = self.pi_float()
        blocks = (reps[i : i + rows] for i in range(0, len(reps), rows))
        return max((self._block_mixing_time(self._sparse_t, pi, b, eps, tmax) for b in blocks), default=0)

    def _block_mixing_time(
        self, pt: csc_matrix, pi: np.ndarray, starts: np.ndarray, eps: float, tmax: int
    ) -> int:
        dists = np.zeros((len(starts), self.n_states))
        dists[np.arange(len(starts)), starts] = 1.0
        t = 0
        while True:
            pending = 0.5 * np.abs(dists - pi).sum(axis=1) > eps
            if not pending.all():
                dists = dists[pending]
            if not len(dists):
                return t
            if t >= tmax:
                raise RuntimeError(f"no mixing within {tmax} steps")
            dists = (pt @ dists.T).T
            t += 1

    # -- congestion -----------------------------------------------------------

    def congestion(self, ordering: EdgeOrdering) -> CongestionResult:
        """Exact maximum congestion over all transitions for the canonical-
        path family built on ``ordering``.

        For the transition toggling the edge at ordering position t, the
        loading pairs (I, F) factor as I = H xor (any subset of earlier
        positions) and F = H' xor (any subset of later positions), so the sum
        over all 4^m pairs streams by transition.  Prefix and suffix tables
        over the 2^m states are folded one position at a time; each table is
        a numpy array of Python ints, so every fold, product and comparison
        is exact.  The maximum over a cut is found by ``_first_max_ratio``,
        and the first maximum in (position, state) order is kept."""
        _check_congestion_limit(self.m)
        m, n, perm = self.m, self.n_states, ordering.perm
        wt = np.array(self.weights, dtype=object)
        zero = np.zeros(n, dtype=object)

        # suffix tables over subsets of positions > t, one pair per cut
        suffix = [(wt, zero)]
        for t in range(m - 2, -1, -1):
            suffix.append(_fold(*suffix[-1], perm[t + 1]))
        suffix.reverse()

        # rho of a transition is 2 m num / (z min(w_h, w_h')); candidates
        # compare as num / min(w_h, w_h') by cross-multiplication
        best_num, best_den = -1, 1
        best_pair = (0, 0)
        s1, s1k = wt, zero
        for t, e in enumerate(perm):
            suf, sufk = suffix[t]
            num = s1k * _flip(suf, e) + s1 * _flip(sufk + suf, e)
            den = np.minimum(wt, _flip(wt, e))
            h = _first_max_ratio(num, den)
            if num[h] * best_den > best_num * den[h]:
                best_num, best_den = num[h], den[h]
                best_pair = (h, h ^ (1 << e))
            if t + 1 < m:
                s1, s1k = _fold(s1, s1k, e)

        rho = Fraction(2 * m * best_num, self.total_weight * best_den)
        return CongestionResult(rho, best_pair, ordering.width)


def empirical_tv(
    chain: ExactChain, samples: list[EdgeSubset]
) -> float:
    """TV distance between a sample histogram and the exact stationary law."""
    hist = np.zeros(chain.n_states)
    for s in samples:
        hist[s] += 1.0
    hist /= len(samples)
    return 0.5 * float(np.abs(hist - chain.pi_float()).sum())


# ---------------------------------------------------------------------------
# Congestion


@dataclass(frozen=True)
class CongestionResult:
    rho: Fraction
    argmax: tuple[EdgeSubset, EdgeSubset]
    width: int


def congestion(
    g: Graph | BipartiteGraph, ordering: EdgeOrdering, params: ChainParams
) -> CongestionResult:
    """Exact maximum congestion of the canonical-path family built on
    ``ordering``: ``ExactChain.congestion`` on a chain built for it."""
    graph = g.graph if isinstance(g, BipartiteGraph) else g
    _check_congestion_limit(graph.m)
    return ExactChain(g, params).congestion(ordering)


def _check_congestion_limit(m: int) -> None:
    if m > CONGESTION_LIMIT:
        raise LimitExceededError(
            f"congestion enumeration limited to {CONGESTION_LIMIT} edges, got {m}"
        )


def _flip(a: np.ndarray, e: int) -> np.ndarray:
    """a[h ^ 2^e] for every state h, as a new array."""
    return a.reshape(-1, 2, 1 << e)[:, ::-1, :].reshape(len(a))


def _fold(s: np.ndarray, sk: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Free one more edge e in a (sum, flip-weighted sum) table pair:
    s'[h] = s[h] + s[h ^ 2^e] and sk'[h] = sk[h] + sk[h ^ 2^e] + s[h ^ 2^e]."""
    fs = _flip(s, e)
    return s + fs, sk + _flip(sk, e) + fs


def _first_max_ratio(num: np.ndarray, den: np.ndarray) -> int:
    """The first h maximising num[h] / den[h] (den > 0), exactly.

    Floor quotients shortlist the states: every maximiser has the greatest
    one.  Then, while some shortlisted state beats the first one by
    cross-multiplication, the shortlist shrinks to the states that do; those
    keep every maximiser in state order."""
    q = num // den
    idx = np.flatnonzero(q == q.max())
    while len(idx) > 1:
        c = idx[0]
        better = num[idx] * den[c] > num[c] * den[idx]
        if not better.any():
            break
        idx = idx[better]
    return int(idx[0])


def congestion_bound(g: Graph, params: ChainParams, width: int) -> Fraction:
    """2 |E|^2 * max(lam, 1/lam)^width, the canonical-path guarantee."""
    bar = max(params.lam, 1 / params.lam)
    return 2 * Fraction(g.m) ** 2 * bar**width


def mixing_bound_from_congestion(
    rho: Fraction, pi_start: Fraction, eps: float
) -> float:
    """rho * (log(1/pi(start)) + log(1/eps)) — the congestion-to-mixing bound.

    log(1/pi) is taken as log(denominator) - log(numerator): ``math.log``
    of an int works from its bit length, so no tiny pi underflows to 0."""
    log_inv_pi = math.log(pi_start.denominator) - math.log(pi_start.numerator)
    return float(rho) * (log_inv_pi + math.log(1 / eps))
