"""Job lists of the three workloads and the checks on their outputs.

A workload is a closed loop with one client: each job starts when the
previous one has returned.  A job is one call a user would make, either
through the package's public functions or through ``rankpoly.cli.main`` on
the graph files written at set-up, with its stdout captured.  Every job has a
check that compares its output with a value computed by ``oracles`` or with a
property the method must have; checks run after the job's time is taken.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable

from rankpoly import chains, cli, exact, graphs, mixing, reductions
from rankpoly.chains import RC, RWS, ChainParams
from rankpoly.rng import SplitMix64

import oracles

EPS = 0.25
HALF, ONE, TWO = Fraction(1, 2), Fraction(1), Fraction(2)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # a failure description, or None
    reference: str = "python"  # the hostspeed reference its time is scaled by


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def checked(fn: Callable[[Any], None]) -> Callable[[Any], str | None]:
    def check(out):
        try:
            fn(out)
        except CheckFailed as exc:
            return str(exc)
        return None

    return check


def once(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Compute an expected value on first use and keep it for later rounds."""
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def dense_taus_in_helper(cases: list[tuple[list[Fraction], int]]) -> list[tuple[int, float, float]]:
    """oracles.dense_mixing_time for each (weights, m) case, computed in a
    fresh interpreter so that its matrices do not count toward the workload
    process's peak RSS."""
    doc = json.dumps({"eps": EPS, "cases": [[[str(w) for w in ws], m] for ws, m in cases]})
    proc = subprocess.run([sys.executable, oracles.__file__], input=doc, capture_output=True, text=True,
                          timeout=120, check=True)
    return [tuple(r) for r in json.loads(proc.stdout)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_value(out: tuple[int, str]) -> Fraction:
    code, text = out
    expect(code == 0, f"exit code {code}")
    return Fraction(text.splitlines()[0])


def check_binomial_rows(terms: dict, m: int) -> None:
    for s in range(m + 1):
        got = sum(c for (_, size), c in terms.items() if size == s)
        expect(got == comb(m, s), f"table column s={s} sums to {got}, not C({m},{s})")


def check_table_value(terms: dict, value: Fraction, a: Fraction, b: Fraction) -> None:
    want = sum((c * Fraction(a) ** r * Fraction(b) ** s for (r, s), c in terms.items()), Fraction(0))
    expect(value == want, "value differs from its own table")


def check_certificate(cert) -> None:
    for p, res in zip(cert.primes, cert.residues):
        expect(cert.reconstructed % p == res, f"residue mod {p} does not match")
    expect(abs(cert.reconstructed) <= cert.bound, "reconstruction exceeds its bound")


def bip_is_count(b: graphs.BipartiteGraph) -> int:
    return oracles.count_bipartite_independent_sets(b.side_u, b.side_w, b.edges)


# ---------------------------------------------------------------------------
# exact


def exact_jobs(inp: dict) -> list[Job]:
    jobs: list[Job] = []
    lam, mu, q = inp["lam"], inp["mu"], inp["q"]

    for i, b in enumerate(inp["bip"][:-1]):
        la, mb = lam[i], mu[i]

        @checked
        def check_bip(res, b=b, la=la, mb=mb, is_count=once(lambda b=b: bip_is_count(b))):
            check_binomial_rows(res.terms, b.m)
            check_table_value(res.terms, res.value, la, mb)
            at_half = sum((c * HALF**r for (r, _), c in res.terms.items()), Fraction(0))
            expect(at_half * TWO ** (b.n - b.m) == is_count(), "table at (1/2, 1) misses #BIS")

        jobs.append(Job(f"r2_prime.bip{b.m}", lambda b=b, la=la, mb=mb: exact.r2_prime(b, la, mb), check_bip))

    f1 = inp["forest"][1]

    @checked
    def check_forest(res, table=once(lambda: oracles.forest_matching_table(f1.n, f1.edges))):
        expect(res.terms == dict(table()), "rank table differs from the matching DP")
        check_table_value(res.terms, res.value, lam[2], mu[2])

    jobs.append(Job(
        f"r2_prime.forest{f1.m}",
        lambda: exact.r2_prime(graphs.bipartition_of(f1), lam[2], mu[2]),
        check_forest,
    ))

    gen, forest = inp["gen"], inp["forest"][0]
    g0 = gen[0]

    @checked
    def check_r2_gen(res, g=g0, matchings=once(lambda: oracles.count_matchings(g0.n, g0.edges))):
        check_binomial_rows(res.terms, g.m)
        check_table_value(res.terms, res.value, lam[0], mu[1])
        got = sum(c for (r, s), c in res.terms.items() if r == 2 * s)
        expect(got == matchings(), "full-rank-on-support subsets are not the matchings")

    jobs.append(Job(f"r2.gen{g0.m}", lambda: exact.r2(g0, lam[0], mu[1]), check_r2_gen))

    @checked
    def check_r2_forest(res, table=once(lambda: oracles.forest_matching_table(forest.n, forest.edges))):
        expect(res.terms == {(2 * r, s): c for (r, s), c in table().items()}, "forest rank != 2 * matching")
        check_table_value(res.terms, res.value, lam[1], mu[0])

    jobs.append(Job(f"r2.forest{forest.m}", lambda: exact.r2(forest, lam[1], mu[0]), check_r2_forest))

    g1 = gen[1]
    jobs.append(Job(
        f"count_matchings.gen{g1.m}",
        lambda: exact.count_matchings(g1),
        checked(lambda got, want=once(lambda: oracles.count_matchings(g1.n, g1.edges)):
                expect(got == want(), f"{got} matchings, expected {want()}")),
    ))

    @checked
    def check_zrc_forest(res):
        check_binomial_rows(res.terms, f1.m)
        expect(res.value == oracles.zrc_forest(f1.n, f1.m, q[0], mu[3]), "forest Z_rc closed form")

    jobs.append(Job(f"random_cluster.forest{f1.m}", lambda: exact.random_cluster(f1, q[0], mu[3]), check_zrc_forest))

    @checked
    def check_zrc_gen(res, g=g1):
        check_binomial_rows(res.terms, g.m)
        check_table_value(res.terms, res.value, q[1], mu[3])
        expect(res.terms.get((g.n, 0)) == 1 and res.terms.get((1, g.m)) == 1, "empty or full subset kappa")

    jobs.append(Job(f"random_cluster.gen{g1.m}", lambda: exact.random_cluster(g1, q[1], mu[3]), check_zrc_gen))

    tree, (x0, y0), (x1, y1) = inp["tree"], *inp["tutte_xy"]
    jobs.append(Job(
        f"tutte.tree{tree.m}",
        lambda: exact.tutte(tree, x0, y0),
        checked(lambda got: expect(got == oracles.tutte_tree(tree.n, x0), "T(tree) != x^(n-1)")),
    ))
    jobs.append(Job(
        f"tutte.gen{g0.m}.at11",
        lambda: exact.tutte(g0, ONE, ONE),
        checked(lambda got, want=once(lambda: oracles.spanning_forests(g0.n, g0.edges)):
                expect(got == want(), "T(1,1) != spanning-tree count")),
    ))
    jobs.append(Job(
        f"tutte.gen{g1.m}.at22",
        lambda: exact.tutte(g1, TWO, TWO),
        checked(lambda got: expect(got == 2**g1.m, "T(2,2) != 2^m")),
    ))

    b_api = inp["bis"][0]
    jobs.append(Job(
        f"count_bis.bip{b_api.m}",
        lambda: exact.count_bis(b_api),
        checked(lambda got, want=once(lambda: bip_is_count(b_api)): expect(got == want(), "#BIS")),
    ))

    kab, eta = inp["kab"], inp["eta"]
    a_side, b_side = len(kab.side_u), len(kab.side_w)
    jobs.append(Job(
        f"count_pbis_auto.K{a_side},{b_side}",
        lambda: exact.count_pbis_auto(kab, eta),
        checked(lambda got: expect(
            got == oracles.pbis_complete_bipartite(a_side, b_side, eta), "permissive count of K_ab")),
    ))

    k2 = inp["k2"]

    @checked
    def check_k2(out):
        value, cert = out
        expect(value == Fraction(-3) == exact.tutte(k2, Fraction(-3), Fraction(5)), "T(K2) at (-3, 5)")
        expect(cert.value == value, "certificate value")
        check_certificate(cert)

    jobs.append(Job("tutte_via_oracle.K2", lambda: reductions.tutte_via_oracle(k2, Fraction(-3), Fraction(5)), check_k2))

    p3 = inp["p3"]

    @checked
    def check_p3(out):
        value, cert = out
        expect(value == len(oracles.independent_sets(p3.n, p3.edges)), "#IS(P3) via the oracle")
        check_certificate(cert)

    jobs.append(Job("bis_via_pbis_oracle.P3", lambda: reductions.bis_via_pbis_oracle(p3, Fraction(7, 9)), check_p3))

    # CLI jobs on the graph files written at set-up.
    files = inp["files"]
    b_last, g_last, bis_last, cycle = inp["bip"][-1], gen[-1], inp["bis"][-1], inp["cycle"]
    cli_jobs = [
        (
            f"cli.eval_r2p.bip{b_last.m}",
            ["eval", "r2p", "--graph", files["bip_last"], "--lambda=1/2", "--mu=1"],
            lambda out, want=once(lambda: bip_is_count(b_last)):
                expect(cli_value(out) * TWO ** (b_last.n - b_last.m) == want(), "R2'(1/2,1) * 2^(n-m) != #BIS"),
        ),
        (
            f"cli.count_matchings.gen{g_last.m}",
            ["count", "matchings", "--graph", files["gen_last"]],
            lambda out, want=once(lambda: oracles.count_matchings(g_last.n, g_last.edges)):
                expect(cli_value(out) == want(), "matching count"),
        ),
        (
            f"cli.count_bis.bip{bis_last.m}",
            ["count", "bis", "--graph", files["bis_last"]],
            lambda out, want=once(lambda: bip_is_count(bis_last)): expect(cli_value(out) == want(), "#BIS"),
        ),
        (
            f"cli.eval_tutte.cycle{cycle.n}",
            ["eval", "tutte", "--graph", files["cycle"], f"--x={x1}", f"--y={y1}"],
            lambda out: expect(cli_value(out) == oracles.tutte_cycle(cycle.n, x1, y1), "T(C_n) closed form"),
        ),
        (
            "cli.reduce_tutte.C3",
            ["reduce", "tutte", "--graph", files["c3"], "--x=-3", "--y=2"],
            check_reduce_c3,
        ),
    ]
    for name, argv, fn in cli_jobs:
        jobs.append(Job(name, lambda argv=argv: run_cli(argv), checked(fn)))
    return jobs


def check_reduce_c3(out) -> None:
    code, text = out
    expect(code == 0, f"exit code {code}")
    doc = json.loads(text)
    expect(Fraction(doc["value"]) == oracles.tutte_cycle(3, Fraction(-3), Fraction(2)), "T(C3) at (-3, 2)")
    for p, res in zip(doc["primes"], doc["residues"]):
        expect(doc["reconstructed"] % p == res, f"residue mod {p} does not match")


# ---------------------------------------------------------------------------
# sample


def oriented(b: graphs.BipartiteGraph) -> list[tuple[int, int]]:
    upos = {u: i for i, u in enumerate(b.side_u)}
    wpos = {w: i for i, w in enumerate(b.side_w)}
    return [(upos[u], wpos[w]) if u in upos else (upos[w], wpos[u]) for u, w in b.edges]


def recomputed_statistic(family: str, g, subset: int) -> int:
    """Bipartite rank (rws) or component count (rc) of a subset, recomputed."""
    if family == RWS:
        rows = [0] * len(g.side_u)
        for i, (ui, wi) in enumerate(oriented(g)):
            if subset >> i & 1:
                rows[ui] |= 1 << wi
        return oracles.gf2_rank(rows)
    return oracles.component_count(g.n, [e for i, e in enumerate(g.edges) if subset >> i & 1])


def check_run(family: str, g, final_subset: int, final_stat: int, rate: float) -> None:
    expect(final_stat == recomputed_statistic(family, g, final_subset), "cached statistic != recomputed value")
    expect(0 < rate <= 0.5, f"acceptance {rate} outside (0, 1/2]")


def sample_jobs(inp: dict) -> list[Job]:
    jobs: list[Job] = []
    steps, thin, seeds = inp["steps"], inp["thin"], iter(inp["seeds"])
    rws_params, rc_params = ChainParams(RWS, HALF, ONE), ChainParams(RC, TWO, ONE)
    retained: dict[int, list[int]] = {}

    def run_rws(i, b, seed):
        res = chains.run(b, rws_params, steps, seed, 0, 0, thin)
        retained[i] = res.samples
        return res

    for i, b in enumerate(inp["big"]):
        for family in (RWS, RC):
            seed = next(seeds)
            if family == RWS:
                fn = lambda i=i, b=b, seed=seed: run_rws(i, b, seed)
            else:
                fn = lambda b=b, seed=seed: chains.run(b.graph, rc_params, steps, seed)

            @checked
            def check(res, family=family, b=b):
                expect(res.final.steps == steps, "step count")
                if family == RWS:
                    expect(len(res.samples) == steps // thin, "retained sample count")
                check_run(family, b if family == RWS else b.graph, res.final.subset, res.final.statistic,
                          res.acceptance_rate)

            jobs.append(Job(f"{family}.m{b.m}", fn, check))

    bridge_seed = next(seeds)

    def bridge():
        rng = SplitMix64(bridge_seed)
        return [
            [chains.bis_sample_bridge(inp["big"][i], s, rng) for s in retained[i]]
            for i in range(len(inp["big"]))
        ]

    @checked
    def check_bridge(out):
        for b, sets in zip(inp["big"], out):
            ori = oriented(b)
            expect(len(sets) == steps // thin, "one independent set per retained sample")
            expect(all(oracles.is_independent(u, w, ori) for u, w in sets), "bridge output is not independent")

    jobs.append(Job("bridge.big", bridge, check_bridge))

    # Small graphs: the chain's (statistic, size) histogram against the
    # stationary law that the benchmark enumerates itself.
    small_steps = inp["small_steps"]
    for family, g, params in ((RWS, inp["small_bip"], rws_params), (RC, inp["small_gen"], rc_params)):
        seed, sthin = next(seeds), 5 * g.m

        def law(family=family, g=g, params=params):
            side_u = g.side_u if family == RWS else None
            return oracles.stat_size_law(oracles.subset_weights(
                family, g.n, g.edges, side_u, params.lam, params.mu))

        @checked
        def check_small(res, family=family, g=g, law=once(law), sthin=sthin):
            hist: dict = {}
            for s in res.samples:
                key = (recomputed_statistic(family, g, s), bin(s).count("1"))
                hist[key] = hist.get(key, 0) + 1
            tv = oracles.tv_distance(hist, law())
            tol = oracles.tv_tolerance(len(law()), len(res.samples))
            expect(len(res.samples) == small_steps // sthin, "retained sample count")
            expect(tv <= tol, f"histogram TV {tv:.3f} > {tol:.3f}")

        jobs.append(Job(
            f"{family}.small{g.m}",
            lambda g=g, params=params, seed=seed, sthin=sthin: chains.run(
                g, params, small_steps, seed, 0, 0, sthin),
            check_small,
        ))

    tiny, tiny_seed, bridge_tiny_seed = inp["tiny"], next(seeds), next(seeds)

    def tiny_bridge():
        res = chains.run(tiny, rws_params, small_steps // 2, tiny_seed, 0, 0, 2 * tiny.m)
        rng = SplitMix64(bridge_tiny_seed)
        return [chains.bis_sample_bridge(tiny, s, rng) for s in res.samples]

    @checked
    def check_tiny(sets):
        everything = set(oracles.independent_sets(tiny.n, tiny.edges))
        hist: dict = {}
        for u, w in sets:
            vertices = sum(1 << v for i, v in enumerate(tiny.side_u) if u >> i & 1)
            vertices += sum(1 << v for i, v in enumerate(tiny.side_w) if w >> i & 1)
            expect(vertices in everything, "bridge output is not an independent set")
            hist[vertices] = hist.get(vertices, 0) + 1
        uniform = {s: Fraction(1, len(everything)) for s in everything}
        tv = oracles.tv_distance(hist, uniform)
        tol = oracles.tv_tolerance(len(everything), len(sets))
        expect(tv <= tol, f"bridge TV to uniform {tv:.3f} > {tol:.3f}")

    jobs.append(Job(f"bridge.tiny{tiny.m}", tiny_bridge, check_tiny))

    # CLI sampler runs on the graph files written at set-up.
    cli_steps = inp["cli_steps"]
    big = inp["big"]
    mid = len(big) // 2
    for family, b, weight, path in (
        (RWS, big[mid], "--lambda=1/2", inp["files"]["rws"]),
        (RC, big[mid - 1], "--q=2", inp["files"]["rc"]),
    ):
        argv = ["sample", family, "--graph", path, weight, "--mu=1", "--steps", str(cli_steps),
                "--seed", str(next(seeds)), "--thin", str(thin)]

        @checked
        def check_cli(out, family=family, b=b):
            code, text = out
            expect(code == 0, f"exit code {code}")
            lines = text.splitlines()
            summary = json.loads(lines[-1])
            expect(len(lines) - 1 == summary["retained"] == cli_steps // thin, "retained sample lines")
            check_run(family, b if family == RWS else b.graph, int(summary["final_subset"], 16),
                      summary["final_statistic"], summary["acceptance_rate"])

        jobs.append(Job(f"cli.sample_{family}.m{b.m}", lambda argv=argv: run_cli(argv), check_cli))
    return jobs


# ---------------------------------------------------------------------------
# mixlab


def params_for(family: str) -> ChainParams:
    return ChainParams(RWS, HALF, ONE) if family == RWS else ChainParams(RC, TWO, ONE)


def target_for(family: str, g: graphs.Graph):
    return graphs.bipartition_of(g) if family == RWS else g


def trio(chain) -> list[int]:
    worst = min(range(chain.n_states), key=lambda s: chain.weights[s])
    return sorted({0, chain.n_states - 1, worst})


def own_weights(family: str, g: graphs.Graph) -> list[Fraction]:
    p = params_for(family)
    side_u = graphs.bipartition_of(g).side_u if family == RWS else None
    return [w for _, _, w in oracles.subset_weights(family, g.n, g.edges, side_u, p.lam, p.mu)]


def mixing_bound(rho: Fraction, weights: list[Fraction]) -> float:
    pi_min = min(weights) / sum(weights)
    return float(rho) * (oracles.log_inverse(pi_min) + math.log(1 / EPS))


def width_of(g: graphs.Graph, perm) -> int:
    """Linear width from the definition: the most vertices with an edge
    strictly before a cut and another at or after it."""
    first, last = {}, {}
    for t, e in enumerate(perm):
        for x in g.edges[e]:
            first.setdefault(x, t)
            last[x] = t
    live = [0] * (g.m + 1)
    for x in first:
        if last[x] > first[x]:
            live[first[x] + 1] += 1
            live[last[x] + 1] -= 1
    width = cur = 0
    for c in range(g.m):
        cur += live[c]
        width = max(width, cur)
    return width


def check_tree_ordering(g: graphs.Graph, perm, width: int) -> None:
    expect(sorted(perm) == list(range(g.m)), "ordering is not a permutation")
    expect(width == width_of(g, perm), "reported width differs from the definition")
    expect(width <= int(math.log2(g.n)), f"dfs width {width} > floor(log2 {g.n})")


def mixlab_jobs(inp: dict) -> list[Job]:
    jobs: list[Job] = []

    combos = [(gname, family) for gname in ("star", "tree") for family in (RWS, RC)]

    @once
    def dense_all():
        """Own weights and dense-matrix tau of every all-starts chain."""
        cases = [(own_weights(family, inp[gname]), inp[gname].m) for gname, family in combos]
        taus = dense_taus_in_helper(cases)
        return {key: (w, tau) for key, (w, _), tau in zip(combos, cases, taus)}

    for gname, family in combos:
        g, params = inp[gname], params_for(family)

        def tau_all(g=g, family=family, params=params):
            chain = mixing.ExactChain(target_for(family, g), params)
            chain.sparse_transition()
            return chain.mixing_time(EPS, list(range(chain.n_states))), chain.mixing_time(EPS, trio(chain))

        def rho_tree(g=g, family=family, params=params):
            return mixing.congestion(target_for(family, g), mixing.dfs_tree_ordering(g), params)

        @checked
        def check_tau(out, g=g, params=params, key=(gname, family), rho=once(rho_tree)):
            t_all, t_trio = out
            weights, (t_dense, tv_at, tv_before) = dense_all()[key]
            expect(t_all >= t_trio, "tau over all starts < tau over the trio")
            expect(t_all == t_dense or min(abs(tv_at - EPS), abs(tv_before - EPS)) < 1e-9,
                   f"tau {t_all} != dense-matrix tau {t_dense}")
            res = rho()
            expect(res.rho <= 2 * g.m**2 * max(params.lam, 1 / params.lam) ** res.width,
                   "congestion above 2 m^2 max(lam, 1/lam)^width")
            expect(t_all <= mixing_bound(res.rho, weights), "tau above the congestion bound")

        jobs.append(Job(f"tau_all.{gname}{g.m}.{family}", tau_all, check_tau, reference="numpy"))

    for gname, family in (("trio_tree", RWS), ("cycle", RC)):
        g, params = inp[gname], params_for(family)

        def trio_job(g=g, family=family, params=params):
            chain = mixing.ExactChain(target_for(family, g), params)
            chain.sparse_transition()
            starts = trio(chain)
            return chain.mixing_time(EPS, starts), [chain.tv_curve(s, eps=EPS) for s in starts]

        @checked
        def check_trio(out):
            tau, curves = out
            for c in curves:
                expect(all(b <= a + 1e-12 for a, b in zip(c, c[1:])), "TV curve increases")
                expect(c[-1] <= EPS and all(v > EPS for v in c[:-1]), "TV curve does not stop at eps")
            expect(tau == max(len(c) - 1 for c in curves), "trio tau != longest TV curve")

        jobs.append(Job(f"tau_trio.{gname}{g.m}.{family}", trio_job, check_trio))

    tree, cycle = inp["trio_tree"], inp["cycle"]

    for family in (RWS, RC):
        params = params_for(family)

        def congestion_tree(family=family, params=params):
            order = mixing.dfs_tree_ordering(tree)
            return order, mixing.congestion(target_for(family, tree), order, params)

        def tree_tau(family=family, params=params):
            chain = mixing.ExactChain(target_for(family, tree), params)
            return chain.mixing_time(EPS, trio(chain))

        @checked
        def check_congestion_tree(out, params=params, tau=once(tree_tau),
                                  weights=once(lambda family=family: own_weights(family, tree))):
            order, res = out
            check_tree_ordering(tree, order.perm, order.width)
            expect(res.rho <= 2 * tree.m**2 * max(params.lam, 1 / params.lam) ** order.width,
                   "congestion above 2 m^2 max(lam, 1/lam)^width")
            expect(tau() <= mixing_bound(res.rho, weights()), "trio tau above the congestion bound")

        jobs.append(Job(f"congestion.tree{tree.m}.{family}", congestion_tree, check_congestion_tree))

    @checked
    def check_congestion_cycle(res):
        h, hp = res.argmax
        expect(res.rho > 0 and bin(h ^ hp).count("1") == 1, "congestion argmax is not a transition")
        expect(res.width == 2, "natural ordering of a cycle has width 2")

    jobs.append(Job(
        f"congestion.cycle{cycle.m}.rc",
        lambda: mixing.congestion(cycle, mixing.natural_ordering(cycle), params_for(RC)),
        check_congestion_cycle,
    ))

    big = inp["big_tree"]
    reverse = list(range(big.m))[::-1]

    def orderings():
        return mixing.dfs_tree_ordering(big), mixing.linear_width_of_ordering(big, reverse)

    @checked
    def check_orderings(out):
        dfs, rev = out
        check_tree_ordering(big, dfs.perm, dfs.width)
        expect(rev.width == width_of(big, reverse), "reversed-order width differs from the definition")

    jobs.append(Job(f"ordering.tree{big.n}", orderings, check_orderings))

    cli_tree, files = inp["cli_tree"], inp["files"]

    @checked
    def check_mix(out, weights=once(lambda: own_weights(RWS, cli_tree))):
        code, text = out
        expect(code == 0, f"exit code {code}")
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        rows = [[float(v) for v in line.split(",")[1:]] for line in lines[1:-1]]
        for col in zip(*rows):
            expect(all(b <= a + 1e-6 for a, b in zip(col, col[1:])), "CSV TV column increases")
        expect(summary["tau"] <= mixing_bound(Fraction(summary["rho"]), weights()), "tau above the bound")
        expect(summary["bound_satisfied"] is True, "CLI reports the bound violated")
        expect(summary["ell"] <= int(math.log2(cli_tree.n)), "dfs width above floor(log2 n)")

    jobs.append(Job(
        f"cli.mix_trio.tree{cli_tree.m}",
        lambda: run_cli(["mix", "--graph", files["cli_tree"], "--family", "rws", "--lambda=1/2", "--mu=1",
                         "--starts", "trio"]),
        check_mix,
    ))

    @checked
    def check_lw(out):
        code, text = out
        expect(code == 0, f"exit code {code}")
        lines = text.splitlines()
        perm = [int(t) for t in lines[1].split()[1:]]
        check_tree_ordering(big, perm, int(lines[0]))

    jobs.append(Job(
        f"cli.lw_dfs.tree{big.n}",
        lambda: run_cli(["lw", "--graph", files["big_tree"], "--ordering", "dfs", "--verbose"]),
        check_lw,
    ))
    return jobs


JOBS = {"exact": exact_jobs, "sample": sample_jobs, "mixlab": mixlab_jobs}
