"""The two lazy single-bond-flip Metropolis chains.

Both chains pick a uniform edge e, propose toggling it in the current
subset, and accept with probability (1/2) * min(1, weight ratio); rejected
mass stays on the current state.  Both track one GF(2) rank, of the matrix
``ChainParams.encode`` gives, and toggling e is one rank-1 update M + u v^T:
for the rank-weighted chain the |U| x |W| bipartite adjacency (u, v the
unit vectors of e's ends), for the random-cluster chain the n x m incidence
(u the two ends of e, v the unit vector of column e), where
kappa(S) = n - rank.  So the weight ratio of a toggle is
base^(d rank) * mu^(+-1), with base lam for rws and 1/q for rc.  Since
d rank is -1, 0 or 1, the six acceptance probabilities are precomputed per
parameter set as reduced integer fractions num/den and tested with
``randrange(den) < num``, the exact draw ``bernoulli`` makes, so a seeded
run is bit-reproducible.

A step draws the edge, then the first word of the acceptance draw, and
only then reads d rank: when the word gives the same verdict for all three
values of d (``ChainParams.gates``), the step needs no rank probe at all.
Otherwise it reads d rank with the read-only ``RankProfile.delta_if_flip``
and finishes the draw from the word (``SplitMix64.randrange_from``).  The
update is applied only when the toggle is accepted, and the words drawn are
exactly those of probing first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gf2 import (
    Toggles,
    bipartite_adjacency,
    bipartite_adjacency_toggles,
    incidence_toggles,
    rank,
    sample_left_nullspace,
    toggled_profile,
)
from .graphs import BipartiteGraph, EdgeSubset, Graph, components
from .rng import SplitMix64

RWS = "rws"
RC = "rc"


@dataclass(frozen=True)
class ChainParams:
    """family 'rws' uses (lam, mu) rank weights on a bipartite graph;
    family 'rc' uses (q, mu) component weights on any graph.  Both chains
    are specified for strictly positive weights.

    The family is decided here only: ``encode`` gives the tracked matrix and
    ``base`` the weight of one unit of its rank (lam, or 1/q).
    ``accept[d + 1][adding]`` is the reduced (num, den) of the acceptance
    probability of a toggle that changes the rank by d and adds (1) or
    removes (0) an edge.

    ``gates[adding]`` = (lo, hi, top) decides a toggle from the first word
    x of ``randrange(den)`` without knowing d.  With k = bit_length(den - 1)
    and s = 64 - k, the word accepts below num << s and is a valid first
    try below den << s; lo and hi are the least and greatest acceptance
    cut over d, and top the least validity cut.  So x < lo accepts for
    every d, hi <= x < top rejects for every d, and any other word needs
    d.  A direction whose draw may take more than one word (k > 64 for
    some d) gets (0, 0, 0), which decides nothing."""

    family: str
    lam: Fraction  # lam for rws, q for rc
    mu: Fraction
    base: Fraction = field(init=False, repr=False, compare=False)
    accept: tuple = field(init=False, repr=False, compare=False)
    gates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in (RWS, RC):
            raise ValueError(f"unknown chain family {self.family!r}")
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "mu", Fraction(self.mu))
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("chain parameters must be strictly positive")
        # kappa = n - rank, so q^(d kappa) = (1/q)^(d rank)
        object.__setattr__(self, "base", self.lam if self.family == RWS else 1 / self.lam)
        table = []
        for d in (-1, 0, 1):
            row = []
            for d_size in (-1, 1):
                p = Fraction(1, 2) * min(Fraction(1), self.base**d * self.mu**d_size)
                row.append((p.numerator, p.denominator))
            table.append(tuple(row))
        object.__setattr__(self, "accept", tuple(table))
        gates = tuple(_gate([row[adding] for row in table]) for adding in (0, 1))
        object.__setattr__(self, "gates", gates)

    def encode(self, g: Graph | BipartiteGraph) -> tuple[Graph, int, int, Toggles]:
        """(graph, nrows, ncols, toggles) of the tracked matrix: the
        bipartite adjacency for rws, the incidence for rc, with toggles[e]
        the rank-1 updates that toggle edge e (``gf2.gray_ranks``)."""
        if self.family == RWS:
            if not isinstance(g, BipartiteGraph):
                raise ValueError("the rank-weighted chain needs a bipartite graph")
            return g.graph, len(g.side_u), len(g.side_w), bipartite_adjacency_toggles(g)
        graph = g.graph if isinstance(g, BipartiteGraph) else g
        return graph, graph.n, graph.m, incidence_toggles(graph)


def _gate(fractions: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(lo, hi, top) of ``ChainParams.gates`` for one direction's (num, den)."""
    shifts = [64 - (den - 1).bit_length() for _, den in fractions]
    if min(shifts) < 0:
        return (0, 0, 0)
    cuts = [num << s for (num, _), s in zip(fractions, shifts)]
    return (min(cuts), max(cuts), min(den << s for (_, den), s in zip(fractions, shifts)))


class ChainState:
    """Single-owner mutable state: current subset plus a ``RankProfile`` of
    the matrix ``ChainParams.encode`` gives for it.

    ``toggles[e]`` is the (rows, cols) bitmask pair of the rank-1 update
    that toggles edge e.  A step probes the rank change only when the
    acceptance word cannot decide alone, and mutates the profile and the
    subset only when the toggle is accepted."""

    def __init__(self, g: Graph | BipartiteGraph, params: ChainParams, subset: EdgeSubset = 0):
        self.params = params
        self.steps = 0
        self.accepts = 0
        self.subset = subset
        self.graph, nrows, ncols, toggles = params.encode(g)
        self.bip = g if isinstance(g, BipartiteGraph) else None
        self.toggles = [update for (update,) in toggles]
        self.m = self.graph.m
        if self.m == 0:
            raise ValueError("chain needs at least one edge")
        self.profile = toggled_profile(nrows, ncols, toggles, subset)

    @property
    def statistic(self) -> int:
        """Cached rank (rws) or component count n - rank (rc)."""
        r = self.profile.rank
        return r if self.params.family == RWS else self.graph.n - r

    def statistic_from_scratch(self) -> int:
        if self.params.family == RWS:
            return rank(bipartite_adjacency(self.bip, self.subset))
        kappa, _ = components(self.graph, self.subset)
        return kappa

    def rc_delta_kappa(self, e: int) -> int:
        """Component-count change if edge e were toggled (state unchanged)."""
        return -self.profile.delta_if_flip(*self.toggles[e])

    def step(self, rng: SplitMix64) -> None:
        self.advance(rng, 1)

    def advance(self, rng: SplitMix64, count: int) -> None:
        """Take ``count`` steps."""
        m, toggles, accept, gates = self.m, self.toggles, self.params.accept, self.params.gates
        delta_if_flip, flip = self.profile.delta_if_flip, self.profile.flip
        randrange, next_u64, randrange_from = rng.randrange, rng.next_u64, rng.randrange_from
        subset, accepts = self.subset, 0
        for _ in range(count):
            e = randrange(m)
            bit = 1 << e
            adding = not subset & bit
            x = next_u64()
            lo, hi, top = gates[adding]
            if x < lo:
                ok = True
            elif hi <= x < top:
                ok = False
            else:
                num, den = accept[delta_if_flip(*toggles[e]) + 1][adding]
                ok = randrange_from(den, x) < num
            if ok:
                flip(*toggles[e])
                subset ^= bit
                accepts += 1
        self.subset = subset
        self.accepts += accepts
        self.steps += count


@dataclass
class RunResult:
    final: ChainState
    samples: list[EdgeSubset] = field(default_factory=list)
    acceptance_rate: float = 0.0


def run(
    g: Graph | BipartiteGraph,
    params: ChainParams,
    steps: int,
    seed: int,
    initial: EdgeSubset = 0,
    burnin: int = 0,
    thin: int = 0,
    debug_check: bool = False,
) -> RunResult:
    """Run the chain for ``steps`` steps, deterministically in ``seed``.

    With thin > 0, the state is recorded every ``thin`` steps once past
    ``burnin``.  ``debug_check`` recomputes the cached statistic from
    scratch after every step.
    """
    for name, value in (("steps", steps), ("burnin", burnin), ("thin", thin)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    state = ChainState(g, params, initial)
    rng = SplitMix64(seed)

    def advance(count: int) -> None:
        if not debug_check:
            state.advance(rng, count)
            return
        for _ in range(count):
            state.advance(rng, 1)
            if state.statistic != state.statistic_from_scratch():
                raise AssertionError(f"cached statistic diverged at step {state.steps - 1}")

    samples: list[EdgeSubset] = []
    done = 0
    for mark in range(burnin + thin, steps + 1, thin) if thin > 0 else ():
        advance(mark - done)
        samples.append(state.subset)
        done = mark
    advance(steps - done)
    rate = state.accepts / state.steps if state.steps else 0.0
    return RunResult(state, samples, rate)


def bis_sample_bridge(
    b: BipartiteGraph, rws_sample: EdgeSubset, rng: SplitMix64
) -> tuple[int, int]:
    """Turn one rank-weighted sample (at lam=1/2, mu=1) into one uniform
    independent set, returned as (U-side bitmask, W-side bitmask) over side
    positions.

    The U part is a uniform left-nullspace vector of the sample's bipartite
    adjacency matrix; the W part keeps every W vertex seeing a chosen U
    vertex at 0 and fills the rest with fair coin flips.
    """
    mat = bipartite_adjacency(b, rws_sample)
    u_vec = sample_left_nullspace(mat, rng)
    full = bipartite_adjacency(b)  # blocked W vertices come from the whole graph
    blocked = 0
    for ui in range(full.rows):
        if (u_vec >> ui) & 1:
            blocked |= full.data[ui]
    w_vec = 0
    for wi in range(len(b.side_w)):
        if not (blocked >> wi) & 1 and rng.randbits(1):
            w_vec |= 1 << wi
    return u_vec, w_vec
