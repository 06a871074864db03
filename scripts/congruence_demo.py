#!/usr/bin/env python3
"""Show the stretch-sum congruence with both sides computed independently.

Builds the stretch-sum of a small base graph with the rooted fan gadget,
prints the gadget sums, the full rank-sum evaluation, the random-cluster
side, and both residues.

Example:
    python scripts/congruence_demo.py --base k3 --lambda 1/3 --mu 1 --p 5 --k 2
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from rankpoly.exact import purity_split_sums, r2_prime, random_cluster
from rankpoly.graphs import complete_graph, fan_gadget, path_graph, stretch_sum
from rankpoly.reductions import rational_mod_p

BASES = {
    "k2": lambda: path_graph(2),
    "p3": lambda: path_graph(3),
    "k3": lambda: complete_graph(3),
    "p4": lambda: path_graph(4),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", choices=sorted(BASES), default="k3")
    ap.add_argument("--lambda", dest="lam", default="1/3")
    ap.add_argument("--mu", default="1")
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--k", type=int, default=2)
    args = ap.parse_args()

    lam, mu = Fraction(args.lam), Fraction(args.mu)
    h = BASES[args.base]()
    gadget, root = fan_gadget(args.k)
    zp, zm = purity_split_sums(gadget, root, lam, mu)
    x_val = lam * zp
    y_val = lam * zp + zm
    print(f"gadget sums: X = {x_val}, Y = {y_val}")
    print(f"X mod {args.p} = {rational_mod_p(x_val, args.p).value}, "
          f"Y mod {args.p} = {rational_mod_p(y_val, args.p).value}")
    if rational_mod_p(y_val, args.p).value != 0:
        print("warning: Y is nonzero mod p; the congruence need not hold")

    g = stretch_sum(h, gadget, root)
    print(f"stretch-sum: {g.n} vertices, {g.m} edges")
    t0 = time.time()
    lhs = r2_prime(g, lam, mu).value
    print(f"rank sum = {lhs}   [{time.time() - t0:.2f}s]")
    rhs = (
        lam ** (h.n * len(gadget.side_u))
        * x_val**h.n
        * random_cluster(h, 1 / lam - 1, mu * mu).value
    )
    print(f"gadget-product side = {rhs}")
    lm, rm = rational_mod_p(lhs, args.p).value, rational_mod_p(rhs, args.p).value
    print(f"residues mod {args.p}: {lm} vs {rm}  ->  {'MATCH' if lm == rm else 'MISMATCH'}")
    return 0 if lm == rm else 1


if __name__ == "__main__":
    sys.exit(main())
