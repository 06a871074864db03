#!/usr/bin/env python3
"""Sample uniform independent sets of a bipartite graph via the rank chain.

Runs the single-bond-flip chain at lam=1/2, mu=1, bridges each retained
subset sample to an independent set through a uniform left-nullspace vector,
and compares the sampled histogram against the exact uniform law.

Example:
    python scripts/sample_independent_sets.py --graph tests/golden/c8.txt --steps 200000
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction

from rankpoly.chains import RWS, ChainParams, bis_sample_bridge, run
from rankpoly.exact import count_bis
from rankpoly.graphio import load_graph, require_bipartite
from rankpoly.graphs import bipartition_of, cycle_graph
from rankpoly.rng import SplitMix64


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--graph", help="graph file; defaults to the 6-cycle")
    ap.add_argument("--steps", type=int, default=100_000)
    ap.add_argument("--thin", type=int, default=10)
    ap.add_argument("--burnin", type=int, default=1_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.graph:
        g, bip = load_graph(args.graph)
        b = require_bipartite(g, bip)
    else:
        b = bipartition_of(cycle_graph(6))

    total = count_bis(b)
    print(f"graph: {b.n} vertices, {b.m} edges, {total} independent sets")

    params = ChainParams(RWS, Fraction(1, 2), Fraction(1))
    result = run(b, params, args.steps, args.seed, burnin=args.burnin, thin=args.thin)
    bridge_rng = SplitMix64(args.seed + 1)
    hist: Counter[tuple[int, int]] = Counter()
    for s in result.samples:
        hist[bis_sample_bridge(b, s, bridge_rng)] += 1

    n_samples = sum(hist.values())
    print(f"{n_samples} bridged samples, {len(hist)} distinct independent sets seen")
    tv = 0.5 * (
        sum(abs(c / n_samples - 1 / total) for c in hist.values())
        + (total - len(hist)) / total
    )
    print(f"TV distance to uniform: {tv:.4f}")
    top = hist.most_common(3)
    for (u, w), c in top:
        print(f"  u={u:#x} w={w:#x}: {c / n_samples:.4f} (uniform would be {1 / total:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
