#!/usr/bin/env python3
"""Sweep measured mixing time against the congestion bound on random trees.

For each tree size the script draws seeded random trees, computes the exact
tau(eps) by operator iteration (all starts), the exact canonical-path
congestion for the DFS ordering, and the resulting upper bound.  Output is a
CSV of tau, rho, bound, and their ratio.

Example:
    python scripts/mixing_experiment.py --sizes 4 6 8 10 --trials 3 --eps 0.25
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from rankpoly.chains import RWS, ChainParams
from rankpoly.graphs import bipartition_of, random_tree
from rankpoly.mixing import ExactChain, dfs_tree_ordering, mixing_bound_from_congestion


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 6, 8, 10])
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--lambda", dest="lam", default="1/2")
    ap.add_argument("--mu", default="1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = ChainParams(RWS, Fraction(args.lam), Fraction(args.mu))
    rng = random.Random(args.seed)
    print("n,m,ell,tau,rho,bound,tau_over_bound")
    for n in args.sizes:
        for _ in range(args.trials):
            tree = random_tree(rng, n)
            b = bipartition_of(tree)
            ordering = dfs_tree_ordering(tree)
            chain = ExactChain(b, params)
            tau = chain.mixing_time(args.eps)
            rho = chain.congestion(ordering).rho  # the states tau walked
            bound = mixing_bound_from_congestion(rho, chain.pi_min(), args.eps)
            print(
                f"{n},{tree.m},{ordering.width},{tau},{float(rho):.4g},"
                f"{bound:.4g},{tau / bound:.5f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
