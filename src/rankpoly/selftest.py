"""Built-in identity suites, grouped for machine-readable pass/fail output.

Each group re-derives its expected values from an independent route (direct
enumeration, closed forms, from-scratch elimination), so a regression in any
core path flips its group to fail.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import exact, gf2, graphs, mixing, reductions
from .chains import RC, RWS, ChainParams


def check_rank_flip_consistency() -> tuple[bool, str]:
    """Entry flips and rank-1 updates keep the from-scratch rank, and the
    read-only probe predicts the change of each, read by flip and undo."""
    rng = random.Random(12345)
    prof = gf2.RankProfile(gf2.zero_matrix(6, 6))
    for step in range(400):
        i, j = rng.randrange(6), rng.randrange(6)
        rows, cols = (1 << i) | rng.randrange(64), (1 << j) | rng.randrange(64)
        before = prof.rank
        predicted = gf2.RankProfile.delta_if_flip(prof, rows, cols)
        flipped = gf2.RankProfile.flip(prof, rows, cols)
        fresh = gf2.rank_of_rows(list(prof.rows))
        if flipped != fresh:
            return False, f"update {step}: maintained {flipped} != scratch {fresh}"
        if gf2.RankProfile.flip(prof, rows, cols) != before:
            return False, f"update {step}: undo did not restore rank {before}"
        if predicted != flipped - before:
            return False, f"update {step}: probe {predicted} != change {flipped - before}"
        r = gf2.RankProfile.flip_entry(prof, i, j)
        fresh = gf2.rank_of_rows(list(prof.rows))
        if r != fresh:
            return False, f"flip {step}: maintained {r} != scratch {fresh}"
    return True, "400 flips and 800 rank-1 updates consistent, probe exact"


def check_purity_rank_identity() -> tuple[bool, str]:
    rng = random.Random(99)
    for trial in range(30):
        h = graphs.random_tree(rng, rng.randint(2, 5))
        b = graphs.two_stretch(h)
        for s in range(1 << b.m):
            rk = gf2.rank(gf2.bipartite_adjacency(b, s))
            kp = graphs.pure_component_count(b, s)
            if rk != len(b.side_u) - kp:
                return False, f"trial {trial} subset {s}: {rk} != {len(b.side_u)}-{kp}"
    return True, "rank == |U| - pure components on stretched trees"


def check_bis_identity() -> tuple[bool, str]:
    rng = random.Random(5)
    cases = [graphs.bipartition_of(graphs.path_graph(n)) for n in range(2, 7)]
    cases += [graphs.complete_bipartite(2, 3), graphs.bipartition_of(graphs.cycle_graph(6))]
    cases += [graphs.random_bipartite(rng, 3, 3) for _ in range(10)]
    for b in cases:
        if exact.count_bis(b) != exact.count_bis_oracle(b):
            return False, f"mismatch on {b.graph.edges}"
    return True, f"{len(cases)} graphs"


def check_pbis_identity() -> tuple[bool, str]:
    rng = random.Random(6)
    for _ in range(8):
        b = graphs.random_bipartite(rng, 3, 3)
        for eta in (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)):
            if exact.count_pbis(b, eta) != exact.count_pbis_oracle(b, eta):
                return False, f"mismatch on {b.graph.edges} at eta={eta}"
    return True, "permissive counts match the labeling sum"


def check_special_points() -> tuple[bool, str]:
    rng = random.Random(7)
    for _ in range(10):
        b = graphs.random_bipartite(rng, 3, 3)
        g = b.graph
        t = g.isolated_count()
        if exact.r2_prime(b, Fraction(1, 2), Fraction(-1)).value != Fraction(2) ** (g.m - g.n + t):
            return False, "half/minus-one point failed"
        if exact.r2_prime(b, Fraction(1), Fraction(3)).value != Fraction(4) ** g.m:
            return False, "lam=1 point failed"
        if exact.r2_prime(b, Fraction(0), Fraction(3)).value != 1:
            return False, "lam=0 point failed"
        if exact.r2(g, Fraction(3), Fraction(2)).value != exact.r2_prime(b, Fraction(9), Fraction(2)).value:
            return False, "square-relation failed"
    return True, "special evaluation points hold"


def check_gadget_forms() -> tuple[bool, str]:
    for k in range(4):
        for lam in (Fraction(1, 3), Fraction(2, 5)):
            for mu in (Fraction(1), Fraction(-2)):
                ups, root = graphs.fan_gadget(k)
                zp, zm = exact.purity_split_sums(ups, root, lam, mu)
                x, y = exact.fan_gadget_closed_forms(k, lam, mu)
                if lam * zp != x or lam * zp + zm != y:
                    return False, f"fan gadget k={k} lam={lam} mu={mu}"
    for k in (1,):
        for lam in (Fraction(1, 3),):
            ups, root = graphs.biclique_gadget(k)
            zp, zm = exact.purity_split_sums(ups, root, lam, Fraction(-2))
            x, y = exact.biclique_gadget_closed_forms(k, lam)
            if lam * zp != x or lam * zp + zm != y:
                return False, f"biclique gadget k={k} lam={lam}"
    return True, "closed forms match enumeration"


def check_matching_rank() -> tuple[bool, str]:
    rng = random.Random(8)
    for trial in range(40):
        t = graphs.random_tree(rng, rng.randint(2, 9))
        b = graphs.bipartition_of(t)
        s = rng.randrange(1 << t.m)
        if gf2.rank(gf2.bipartite_adjacency(b, s)) != graphs.max_matching(t, s):
            return False, f"trial {trial}"
    return True, "forest rank equals maximum matching"


def check_structure_routes() -> tuple[bool, str]:
    """The tables routed by structure (component factors, the tree matching
    DP and binomial closed form, the row-space DP over biadjacency and
    incidence rows, the Gray-code rank walk) against a from-scratch rank
    and component count of every subset."""
    rng = random.Random(13)
    for trial in range(40):
        t = graphs.random_tree(rng, rng.randint(2, 9))
        depth = [0] * t.n
        for u, v in t.edges:
            depth[v] = depth[u] + 1
        chords = [
            (u, v) for u in range(t.n) for v in range(u + 1, t.n)
            if (depth[u] + depth[v]) % 2 and (u, v) not in t.edges
        ]
        extra = rng.sample(chords, min(len(chords), trial % 3))
        # drop an edge to split the tree, and add isolated vertices
        edges = [e for i, e in enumerate(t.edges) if i != trial % t.m] + extra
        g = graphs.Graph(t.n + trial % 2, tuple(edges))
        b = graphs.bipartition_of(g)
        for name, routed, statistic in (
            ("bipartite rank", exact.bipartite_rank_size_counts(b),
             lambda s: gf2.rank(gf2.bipartite_adjacency(b, s))),
            ("adjacency rank", exact.graph_rank_size_counts(g),
             lambda s: gf2.rank(gf2.adjacency(g, s))),
            ("component", exact.component_size_counts(g), lambda s: graphs.components(g, s)[0]),
        ):
            scratch = [[0] * (g.m + 1) for _ in routed]
            for s in range(1 << g.m):
                scratch[statistic(s)][bin(s).count("1")] += 1
            if routed != scratch:
                return False, f"{name} table, trial {trial}"
    return True, "routed tables equal per-subset scratch counts on forests and bridged graphs"


def check_detailed_balance() -> tuple[bool, str]:
    cases = [
        (graphs.path_graph(2), RWS),
        (graphs.path_graph(4), RWS),
        (graphs.cycle_graph(4), RC),
        (graphs.star_graph(3), RC),
    ]
    for g, fam in cases:
        obj = graphs.bipartition_of(g) if fam == RWS else g
        chain = mixing.ExactChain(obj, ChainParams(fam, Fraction(1, 2), Fraction(2)))
        if not chain.verify_detailed_balance():
            return False, f"{fam} on {g.edges}"
    return True, "exact reversibility on all cases"


def check_difference_bounds() -> tuple[bool, str]:
    rng = random.Random(9)
    t = graphs.random_tree(rng, 7)
    ordering = mixing.dfs_tree_ordering(t)
    ell = ordering.width
    for _ in range(300):
        start = rng.randrange(1 << t.m)
        finish = rng.randrange(1 << t.m)
        path = mixing.canonical_path(start, finish, ordering)
        wi = graphs.max_matching(t, start)
        wf = graphs.max_matching(t, finish)
        for h in path:
            c = start ^ finish ^ h
            if abs(wi + wf - graphs.max_matching(t, h) - graphs.max_matching(t, c)) > ell:
                return False, f"matching difference bound broken at {start},{finish}"
            ki = graphs.components(t, start)[0]
            kf = graphs.components(t, finish)[0]
            if abs(ki + kf - graphs.components(t, h)[0] - graphs.components(t, c)[0]) > ell:
                return False, f"component difference bound broken at {start},{finish}"
    return True, "difference bounds hold on sampled canonical paths"


def check_tree_ordering_width() -> tuple[bool, str]:
    rng = random.Random(10)
    import math

    for _ in range(30):
        n = rng.randint(2, 200)
        t = graphs.random_tree(rng, n)
        w = mixing.dfs_tree_ordering(t).width
        if w > int(math.log2(n)):
            return False, f"width {w} > floor(log2 {n})"
    return True, "DFS ordering width within the log bound"


def check_crt_roundtrip() -> tuple[bool, str]:
    rng = random.Random(11)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(50):
        value = rng.randint(-(10**6), 10**6)
        residues = [reductions.ModP(p, value % p) for p in primes]
        if reductions.crt_reconstruct(residues, 10**6) != value:
            return False, f"round-trip failed for {value}"
    return True, "signed reconstruction round-trips"


def _congestion_by_paths(
    chain: mixing.ExactChain, ordering: mixing.EdgeOrdering
) -> tuple[Fraction, tuple[int, int]]:
    """Maximum congestion from the definition: every canonical path loads
    each transition on it, and each transition's load is one Fraction.  The
    first maximum in (ordering position, state) order is the argmax."""
    wt, z, m = chain.weights, chain.total_weight, chain.m
    load: dict[tuple[int, int], int] = {}
    for i in range(chain.n_states):
        for f in range(chain.n_states):
            path = mixing.canonical_path(i, f, ordering)
            for tr in zip(path, path[1:]):
                load[tr] = load.get(tr, 0) + wt[i] * wt[f] * (len(path) - 1)
    position = {e: t for t, e in enumerate(ordering.perm)}
    best, best_pair = Fraction(-1), (0, 0)
    for h, hp in sorted(load, key=lambda tr: (position[(tr[0] ^ tr[1]).bit_length() - 1], tr[0])):
        rho = Fraction(2 * m * load[h, hp], z * min(wt[h], wt[hp]))
        if rho > best:
            best, best_pair = rho, (h, hp)
    return best, best_pair


def check_congestion_bounds() -> tuple[bool, str]:
    """Exact congestion, on an ordering and its reverse, equals the path-
    walking definition in value and argmax, and lies within the canonical-
    path bound.  A table fold that skipped edge e would still be right on
    e's own cut, so the reversed ordering moves the first maximum off it."""
    for g, fam in ((graphs.path_graph(5), RWS), (graphs.star_graph(4), RC)):
        obj = graphs.bipartition_of(g) if fam == RWS else g
        params = ChainParams(fam, Fraction(1, 2), Fraction(1))
        chain = mixing.ExactChain(obj, params)
        dfs = mixing.dfs_tree_ordering(g)
        for ordering in (dfs, mixing.linear_width_of_ordering(g, dfs.perm[::-1])):
            res = chain.congestion(ordering)
            walked = _congestion_by_paths(chain, ordering)
            if (res.rho, res.argmax) != walked:
                return False, f"{fam} congestion {res.rho} at {res.argmax} != path walk {walked}"
            if res.rho > mixing.congestion_bound(g, params, ordering.width):
                return False, f"{fam} congestion bound broken"
    return True, "exact congestion within the canonical-path bound"


def check_sampler_determinism() -> tuple[bool, str]:
    from . import chains

    b = graphs.bipartition_of(graphs.path_graph(5))
    params = ChainParams(RWS, Fraction(1, 2), Fraction(1))
    r1 = chains.run(b, params, 500, seed=42, thin=10)
    r2 = chains.run(b, params, 500, seed=42, thin=10)
    if r1.samples != r2.samples:
        return False, "same seed produced different traces"
    r3 = chains.run(b, params, 500, seed=43, thin=10)
    if r1.samples == r3.samples:
        return False, "different seeds produced identical traces"
    return True, "seeded runs reproduce exactly"


QUICK_GROUPS = {
    "rank-flip-consistency": check_rank_flip_consistency,
    "purity-rank-identity": check_purity_rank_identity,
    "bis-identity": check_bis_identity,
    "special-points": check_special_points,
    "gadget-closed-forms": check_gadget_forms,
    "matching-rank": check_matching_rank,
    "structure-routes": check_structure_routes,
    "detailed-balance": check_detailed_balance,
    "crt-roundtrip": check_crt_roundtrip,
    "sampler-determinism": check_sampler_determinism,
}

FULL_GROUPS = {
    **QUICK_GROUPS,
    "pbis-identity": check_pbis_identity,
    "difference-bounds": check_difference_bounds,
    "tree-ordering-width": check_tree_ordering_width,
    "congestion-bounds": check_congestion_bounds,
}


def run_selftest(quick: bool = False) -> dict[str, dict]:
    groups = QUICK_GROUPS if quick else FULL_GROUPS
    report: dict[str, dict] = {}
    for name, fn in groups.items():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        report[name] = {"pass": ok, "detail": detail}
    return report
