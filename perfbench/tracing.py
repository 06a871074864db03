"""Spans and per-layer metrics for the traced run.

Tracing is done from outside the package: ``instrument`` replaces public
functions of the rankpoly modules with wrappers that record a span (name,
start, end, parent, counts) around each call, and ``restore`` puts the
originals back.  Calls from inside the package see the wrappers too, because
every rankpoly module that binds the function is patched.  Spans stay in
memory and are written to a file when the run ends.

The gf2, rng and components figures are too fine-grained to wrap per call,
so ``replay_metrics`` replays the workload's own flip, draw and subset
sequences through the public functions and times them.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Callable

from rankpoly import chains, cli, exact, gf2, graphio, graphs, mixing, reductions
from rankpoly.rng import SplitMix64


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None, "counts": counts}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _subsets(args, kwargs, out) -> dict:
    return {"subsets": 1 << args[0].m}


def _run_counts(args, kwargs, out) -> dict:
    return {"family": out.final.params.family, "steps": out.final.steps, "accepts": out.final.accepts}


def _primes(args, kwargs, out) -> dict:
    return {"primes": len(out[1].primes)}


def _tau_counts(args, kwargs, out) -> dict:
    chain = args[0]
    starts = args[2] if len(args) > 2 else kwargs.get("starts")
    if starts is None:
        starts = chain.default_starts()
    return {"all": len(starts) == chain.n_states, "tau": out}


def _cached(args, kwargs) -> dict:
    return {"cached": args[0]._sparse is not None}


# (owner, attribute, span name, counts taken from the call and its result,
# counts taken before the call)
WRAPPED: list[tuple] = [
    (cli, "main", "cli.main", None),
    (graphio, "load_graph", "graphio.load_graph", None),
    (graphs, "stretch_sum", "graphs.construct", None),
    (graphs, "cloud_blowup", "graphs.construct", None),
    (graphs, "bipartition_of", "graphs.construct", None),
    (exact, "bipartite_rank_size_counts", "exact.r2p_table", _subsets),
    (exact, "graph_rank_size_counts", "exact.r2_table", _subsets),
    (exact, "component_size_counts", "exact.component_table", _subsets),
    (exact, "purity_split_sums", "exact.purity_split_sums", _subsets),
    (exact, "evaluate_table", "exact.evaluate_table", None),
    (exact, "count_pbis_twins", "exact.count_pbis_twins", None),
    (chains, "run", "chains.run", _run_counts),
    (chains, "bis_sample_bridge", "chains.bis_sample_bridge", None),
    (mixing.ExactChain, "__init__", "mixing.exact_chain_build", None),
    (mixing.ExactChain, "sparse_transition", "mixing.sparse_transition", None, _cached),
    (mixing.ExactChain, "mixing_time", "mixing.mixing_time", _tau_counts),
    (mixing.ExactChain, "tv_curve", "mixing.tv_curve", None),
    (mixing, "congestion", "mixing.congestion", None),
    (mixing, "dfs_tree_ordering", "mixing.ordering", None),
    (mixing, "linear_width_of_ordering", "mixing.ordering", None),
    (reductions, "find_gadget_params", "reductions.prime_search", None),
    (reductions, "find_pbis_params", "reductions.prime_search", None),
    (reductions, "crt_reconstruct", "reductions.crt", None),
    (reductions, "tutte_via_oracle", "reductions.tutte_via_oracle", _primes),
    (reductions, "bis_via_pbis_oracle", "reductions.bis_via_pbis_oracle", _primes),
]


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Install span wrappers on every rankpoly binding of the WRAPPED
    functions; returns the function that restores the originals."""
    undo: list[tuple[Any, str, Any]] = []
    modules = [m for name, m in list(sys.modules.items()) if name == "rankpoly" or name.startswith("rankpoly.")]
    for owner, attr, span_name, counts_of, *before in WRAPPED:
        orig = getattr(owner, attr)

        def wrapper(*args, _orig=orig, _name=span_name, _counts=counts_of, _before=before, **kwargs):
            with tracer.span(_name, **(_before[0](args, kwargs) if _before else {})) as counts:
                out = _orig(*args, **kwargs)
                if _counts is not None:
                    counts.update(_counts(args, kwargs, out))
            return out

        targets = [owner] if isinstance(owner, type) else [
            m for m in modules if any(v is orig for v in vars(m).values())
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is orig:
                    undo.append((target, key, value))
                    setattr(target, key, wrapper)

    def restore() -> None:
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return restore


# ---------------------------------------------------------------------------
# Metrics from spans


# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
METRICS = {
    "setup.import_s": "s",
    "graphio.load_s": "s",
    "cli.main_s": "s",
    "graphs.construct_s": "s",
    "graphs.components_per_s": "1/s",
    "gf2.flip_entry_per_s.bip": "1/s",
    "gf2.flip_entry_per_s.sym": "1/s",
    "gf2.flip_undo_per_s": "1/s",
    "gf2.nullspace_per_s": "1/s",
    "exact.r2p_subsets_per_s": "1/s",
    "exact.r2_subsets_per_s": "1/s",
    "exact.component_subsets_per_s": "1/s",
    "exact.purity_subsets_per_s": "1/s",
    "exact.evaluate_table_s": "s",
    "exact.pbis_twins_s": "s",
    "rng.draws_per_s": "1/s",
    "chains.rws_steps_per_s": "1/s",
    "chains.rc_steps_per_s": "1/s",
    "chains.rws_accept_ratio": "ratio",
    "chains.rc_accept_ratio": "ratio",
    "chains.bridge_per_s": "1/s",
    "mixing.exact_chain_build_s": "s",
    "mixing.sparse_transition_s": "s",
    "mixing.tau_all_s": "s",
    "mixing.tau_steps": "count",
    "mixing.tau_trio_s": "s",
    "mixing.tv_curve_s": "s",
    "mixing.congestion_s": "s",
    "mixing.ordering_s": "s",
    "reductions.prime_search_s": "s",
    "reductions.primes": "count",
    "reductions.tutte_per_prime_s": "s",
    "reductions.bis_per_prime_s": "s",
    "reductions.crt_s": "s",
    "trace.overhead_share": "ratio",
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _top_level(spans: list[dict], name: str) -> list[dict]:
    """Spans of ``name`` not nested inside another span of the same name."""
    return [s for s in spans if s["name"] == name and (s["parent"] is None or spans[s["parent"]]["name"] != name)]


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced round.  A metric whose
    layer the round never called is left out."""
    out: dict[str, float] = {}

    def mean_s(metric: str, name: str, keep=lambda s: True) -> None:
        picked = [s for s in _top_level(spans, name) if keep(s)]
        if picked:
            out[metric] = sum(map(_dur, picked)) / len(picked)

    def rate(metric: str, name: str, key: str | None, keep=lambda s: True) -> None:
        picked = [s for s in _top_level(spans, name) if keep(s)]
        total = sum(map(_dur, picked))
        if picked and total > 0:
            out[metric] = sum(s["counts"][key] if key else 1 for s in picked) / total

    mean_s("graphio.load_s", "graphio.load_graph")
    mean_s("cli.main_s", "cli.main")
    mean_s("graphs.construct_s", "graphs.construct")
    rate("exact.r2p_subsets_per_s", "exact.r2p_table", "subsets")
    rate("exact.r2_subsets_per_s", "exact.r2_table", "subsets")
    rate("exact.component_subsets_per_s", "exact.component_table", "subsets")
    rate("exact.purity_subsets_per_s", "exact.purity_split_sums", "subsets")
    mean_s("exact.evaluate_table_s", "exact.evaluate_table")
    mean_s("exact.pbis_twins_s", "exact.count_pbis_twins")
    for fam in ("rws", "rc"):
        runs = [s for s in spans if s["name"] == "chains.run" and s["counts"]["family"] == fam]
        if runs:
            steps = sum(s["counts"]["steps"] for s in runs)
            out[f"chains.{fam}_steps_per_s"] = steps / sum(map(_dur, runs))
            out[f"chains.{fam}_accept_ratio"] = sum(s["counts"]["accepts"] for s in runs) / steps
    rate("chains.bridge_per_s", "chains.bis_sample_bridge", None)
    mean_s("mixing.exact_chain_build_s", "mixing.exact_chain_build")
    mean_s("mixing.sparse_transition_s", "mixing.sparse_transition", lambda s: not s["counts"]["cached"])
    mean_s("mixing.tau_all_s", "mixing.mixing_time", lambda s: s["counts"]["all"])
    taus = [s["counts"]["tau"] for s in spans if s["name"] == "mixing.mixing_time" and s["counts"]["all"]]
    if taus:
        out["mixing.tau_steps"] = sum(taus)
    mean_s("mixing.tau_trio_s", "mixing.mixing_time", lambda s: not s["counts"]["all"])
    mean_s("mixing.tv_curve_s", "mixing.tv_curve")
    mean_s("mixing.congestion_s", "mixing.congestion")
    mean_s("mixing.ordering_s", "mixing.ordering")
    mean_s("reductions.prime_search_s", "reductions.prime_search")
    mean_s("reductions.crt_s", "reductions.crt")
    primes = 0
    for name, metric in (("reductions.tutte_via_oracle", "reductions.tutte_per_prime_s"),
                         ("reductions.bis_via_pbis_oracle", "reductions.bis_per_prime_s")):
        calls = [s for s in spans if s["name"] == name]
        if calls:
            n = sum(s["counts"]["primes"] for s in calls)
            out[metric] = sum(map(_dur, calls)) / n
            primes += n
    if primes:
        out["reductions.primes"] = primes
    return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for r in rounds for k in r}
    return {k: statistics.median([r[k] for r in rounds if k in r]) for k in keys}


# ---------------------------------------------------------------------------
# Replays of the fine-grained layers


def _timed_rate(count: int, fn: Callable[[], None]) -> float:
    t0 = time.perf_counter()
    fn()
    return count / (time.perf_counter() - t0)


def _gray_flips(pairs: list, limit: int) -> list:
    """Entry flips of the Gray-code walk over edge subsets, first ``limit``."""
    flips = []
    for t in range(1, min(1 << len(pairs), limit + 1)):
        flips.extend(pairs[(t & -t).bit_length() - 1])
    return flips


def replay_metrics(exact_inp: dict, sample_inp: dict, mixlab_inp: dict, seed: int) -> dict[str, float]:
    """gf2, rng and components throughput on the sequences the workloads
    generate: the exact workload's Gray-code flips (bipartite and symmetric),
    the sample workload's flip-and-undo moves, nullspace draws and chain
    draws, and the mixlab workload's subsets."""
    out: dict[str, float] = {}
    rng = random.Random(f"replay:{seed}")

    walks = []
    for b in exact_inp["bip"] + exact_inp["bis"]:
        walks.append((len(b.side_u), len(b.side_w), _gray_flips([[e] for e in b.oriented_edges()], 1 << 15)))
    out["gf2.flip_entry_per_s.bip"] = _replay_flips(walks)

    walks = []
    for g in exact_inp["gen"]:
        walks.append((g.n, g.n, _gray_flips([[(u, v), (v, u)] for u, v in g.edges], 1 << 14)))
    out["gf2.flip_entry_per_s.sym"] = _replay_flips(walks)

    profiles, moves = [], []
    for b in sample_inp["big"]:
        ori = b.oriented_edges()
        prof = gf2.RankProfile(gf2.bipartite_adjacency(b, rng.getrandbits(b.m)))
        profiles.append(prof)
        moves.append([ori[rng.randrange(b.m)] for _ in range(4000)])

    def flip_undo():
        for prof, ms in zip(profiles, moves):
            flip = prof.flip_entry
            for i, j in ms:
                flip(i, j)
                flip(i, j)

    out["gf2.flip_undo_per_s"] = _timed_rate(sum(map(len, moves)), flip_undo)

    mats = [gf2.bipartite_adjacency(b, rng.getrandbits(b.m)) for b in sample_inp["big"] for _ in range(200)]
    draw = SplitMix64(seed)
    out["gf2.nullspace_per_s"] = _timed_rate(
        len(mats), lambda: [gf2.sample_left_nullspace(mt, draw) for mt in mats])

    ms = [b.m for b in sample_inp["big"]]
    probs = [Fraction(1, 2), Fraction(1, 4)]

    def draws():
        r = SplitMix64(seed)
        for _ in range(10000):
            for m in ms:
                r.randrange(m)
            for p in probs:
                r.bernoulli(p)

    out["rng.draws_per_s"] = _timed_rate(10000 * (len(ms) + len(probs)), draws)

    pairs = []
    for g in (mixlab_inp["star"], mixlab_inp["tree"], mixlab_inp["cycle"]):
        pairs += [(g, s) for s in range(1 << g.m)]
    out["graphs.components_per_s"] = _timed_rate(len(pairs), lambda: [graphs.components(g, s) for g, s in pairs])
    return out


def _replay_flips(walks) -> float:
    profiles = [gf2.RankProfile(gf2.zero_matrix(r, c)) for r, c, _ in walks]

    def go():
        for prof, (_, _, flips) in zip(profiles, walks):
            flip = prof.flip_entry
            for i, j in flips:
                flip(i, j)

    return _timed_rate(sum(len(f) for _, _, f in walks), go)

