"""Reference computations owned by the benchmark.

None of these call into rankpoly: graphs are plain (n, edge list) pairs and
every routine is written from its definition, by a different method than the
package uses where one exists.  They produce the expected values and the
properties that the workload checks compare the package's outputs against.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb


# ---------------------------------------------------------------------------
# Independent sets


def independent_sets(n: int, edges) -> list[int]:
    """Every independent set of the graph, as vertex bitmasks, by extending
    sets one vertex at a time in increasing order."""
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    out = [0]
    for v in range(n):
        out += [s | 1 << v for s in out if not s & nbr[v] & ((1 << v) - 1)]
    return out


def count_bipartite_independent_sets(side_u, side_w, edges) -> int:
    """Sum over subsets A of U of 2^(number of W vertices with no neighbour
    in A)."""
    upos = {u: i for i, u in enumerate(side_u)}
    wpos = {w: i for i, w in enumerate(side_w)}
    nbr = [0] * len(side_u)
    for a, b in edges:
        if a in upos:
            nbr[upos[a]] |= 1 << wpos[b]
        else:
            nbr[upos[b]] |= 1 << wpos[a]
    total = 0
    for mask in range(1 << len(side_u)):
        blocked = 0
        for i in range(len(side_u)):
            if mask >> i & 1:
                blocked |= nbr[i]
        total += 1 << (len(side_w) - bin(blocked).count("1"))
    return total


def is_independent(u_mask: int, w_mask: int, oriented) -> bool:
    """True iff no (U-position, W-position) edge has both ends chosen."""
    return not any(u_mask >> a & 1 and w_mask >> b & 1 for a, b in oriented)


# ---------------------------------------------------------------------------
# Matchings


def forest_matching_table(n: int, edges) -> Counter:
    """Counter {(nu, s): number of edge subsets S of the forest with maximum
    matching nu and size s}, by a leaf-up DP in which a vertex is matched to
    its first still-free child (greedy leaf matching is maximum on forests).
    """
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    total = Counter({(0, 0): 1})
    for root in range(n):
        if seen[root]:
            continue
        order, parent = [root], {root: -1}
        seen[root] = True
        for x in order:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    parent[y] = x
                    order.append(y)
        tables: dict[int, tuple[Counter, Counter]] = {}
        for x in reversed(order):
            free, matched = Counter({(0, 0): 1}), Counter()
            for c in adj[x]:
                if parent.get(c) != x:
                    continue
                cf, cm = tables.pop(c)
                nfree, nmatched = Counter(), Counter()
                for (r1, s1), a in free.items():
                    for (r2, s2), b in cf.items():
                        nfree[r1 + r2, s1 + s2] += a * b  # edge out
                        nmatched[r1 + r2 + 1, s1 + s2 + 1] += a * b  # edge in, match x-c
                    for (r2, s2), b in cm.items():
                        nfree[r1 + r2, s1 + s2] += a * b
                        nfree[r1 + r2, s1 + s2 + 1] += a * b
                for (r1, s1), a in matched.items():
                    for (r2, s2), b in cf.items():
                        nmatched[r1 + r2, s1 + s2] += a * b
                        nmatched[r1 + r2, s1 + s2 + 1] += a * b
                    for (r2, s2), b in cm.items():
                        nmatched[r1 + r2, s1 + s2] += a * b
                        nmatched[r1 + r2, s1 + s2 + 1] += a * b
                free, matched = nfree, nmatched
            tables[x] = (free, matched)
        cf, cm = tables.pop(root)
        tree = cf + cm
        joined = Counter()
        for (r1, s1), a in total.items():
            for (r2, s2), b in tree.items():
                joined[r1 + r2, s1 + s2] += a * b
        total = joined
    return total


def count_matchings(n: int, edges) -> int:
    """Matchings (including the empty one): either the first edge is left
    out, or it is used and every edge touching its ends is dropped."""
    memo: dict[tuple, int] = {}

    def rec(es: tuple) -> int:
        if not es:
            return 1
        if es in memo:
            return memo[es]
        (u, v), rest = es[0], es[1:]
        res = rec(rest) + rec(tuple(e for e in rest if u not in e and v not in e))
        memo[es] = res
        return res

    return rec(tuple(edges))


# ---------------------------------------------------------------------------
# Components, ranks and spanning trees


def component_count(n: int, edges) -> int:
    """Connected components by depth-first search (isolated vertices count)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2), eliminating on the highest set bit."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def spanning_forests(n: int, edges) -> int:
    """Number of maximal spanning forests: the product over components of a
    Laplacian cofactor, each by exact fraction elimination."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    total = 1
    for s in range(n):
        if seen[s]:
            continue
        comp, seen[s] = [s], True
        for x in comp:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        idx = {v: i for i, v in enumerate(comp[1:])}
        k = len(idx)
        lap = [[Fraction(0)] * k for _ in range(k)]
        for v in comp[1:]:
            lap[idx[v]][idx[v]] = Fraction(len(adj[v]))
            for y in adj[v]:
                if y in idx:
                    lap[idx[v]][idx[y]] -= 1
        det = Fraction(1)
        for c in range(k):
            piv = next(r for r in range(c, k) if lap[r][c] != 0)
            if piv != c:
                lap[c], lap[piv] = lap[piv], lap[c]
                det = -det
            det *= lap[c][c]
            for r in range(c + 1, k):
                f = lap[r][c] / lap[c][c]
                if f:
                    for j in range(c, k):
                        lap[r][j] -= f * lap[c][j]
        total *= int(det)
    return total


# ---------------------------------------------------------------------------
# Closed forms


def zrc_forest(n: int, m: int, q: Fraction, mu: Fraction) -> Fraction:
    """Random-cluster sum of a forest: every edge is a bridge, so each one
    either stays out or merges two components."""
    return Fraction(q) ** n * (1 + Fraction(mu) / q) ** m


def tutte_tree(n: int, x: Fraction) -> Fraction:
    return Fraction(x) ** (n - 1)


def tutte_cycle(n: int, x: Fraction, y: Fraction) -> Fraction:
    return sum((Fraction(x) ** i for i in range(1, n)), Fraction(0)) + y


def pbis_complete_bipartite(a: int, b: int, eta: Fraction) -> Fraction:
    """Labelings of K_{a,b} weighted by (1+eta)^(edges with both ends 1) *
    (1-eta)^(other edges), grouped by how many ones each side has."""
    eta = Fraction(eta)
    total = Fraction(0)
    for i, j in product(range(a + 1), range(b + 1)):
        total += comb(a, i) * comb(b, j) * (1 + eta) ** (i * j) * (1 - eta) ** (a * b - i * j)
    return total


# ---------------------------------------------------------------------------
# Stationary laws and mixing


def subset_weights(family: str, n: int, edges, side_u, lam: Fraction, mu: Fraction):
    """[(statistic, size, weight)] for every edge subset, in subset order.
    The statistic is the bipartite adjacency rank (rws) or the component
    count (rc), recomputed for each subset."""
    m = len(edges)
    upos = {u: i for i, u in enumerate(side_u or ())}
    out = []
    for s in range(1 << m):
        chosen = [e for i, e in enumerate(edges) if s >> i & 1]
        if family == "rws":
            rows = [0] * len(upos)
            for a, b in chosen:
                if a in upos:
                    rows[upos[a]] |= 1 << b
                else:
                    rows[upos[b]] |= 1 << a
            stat = gf2_rank(rows)
        else:
            stat = component_count(n, chosen)
        out.append((stat, len(chosen), Fraction(lam) ** stat * Fraction(mu) ** len(chosen)))
    return out


def stat_size_law(weights) -> dict[tuple[int, int], Fraction]:
    """Stationary law of (statistic, size) from subset_weights output."""
    z = sum(w for _, _, w in weights)
    law: dict[tuple[int, int], Fraction] = {}
    for stat, size, w in weights:
        law[stat, size] = law.get((stat, size), Fraction(0)) + w / z
    return law


def tv_distance(hist: Counter, law: dict) -> float:
    total = sum(hist.values())
    keys = set(hist) | set(law)
    return 0.5 * sum(abs(hist.get(k, 0) / total - float(law.get(k, 0))) for k in keys)


def tv_tolerance(cells: int, samples: int) -> float:
    """Allowed total-variation distance between a histogram of ``samples``
    well-separated draws and the law, over ``cells`` cells: three times the
    expected distance bound sqrt(cells / samples) / 2."""
    return 1.5 * math.sqrt(cells / samples)


def dense_mixing_time(weights: list[Fraction], m: int, eps: float) -> tuple[int, float, float]:
    """Worst-start mixing time of the lazy single-flip Metropolis chain with
    the given subset weights, from a dense transition matrix.

    Returns (tau, TV at tau, TV at tau - 1).  Powers P^(2^i) are built by
    squaring, then tau is found by binary search, which is valid because the
    worst-start TV distance never increases.
    """
    import numpy as np

    n = len(weights)
    p = np.zeros((n, n))
    for h in range(n):
        for e in range(m):
            g = h ^ (1 << e)
            p[h, g] = float(min(Fraction(1), weights[g] / weights[h]) / (2 * m))
        p[h, h] = 1.0 - p[h].sum()
    z = sum(weights)
    pi = np.array([float(w / z) for w in weights])

    def worst_tv(mat) -> float:
        return float(0.5 * np.abs(mat - pi).sum(axis=1).max())

    if worst_tv(np.eye(n)) <= eps:
        return 0, worst_tv(np.eye(n)), 1.0
    powers = [p]
    while worst_tv(powers[-1]) > eps:
        powers.append(powers[-1] @ powers[-1])
    # tau lies in (2^(k-1), 2^k] with k = len(powers) - 1
    k = len(powers) - 1
    t, cur = (1 << (k - 1), powers[k - 1]) if k else (0, np.eye(n))
    for i in range(k - 2, -1, -1):
        trial = cur @ powers[i]
        if worst_tv(trial) > eps:
            t, cur = t + (1 << i), trial
    return t + 1, worst_tv(cur @ p), worst_tv(cur)


def log_inverse(x: Fraction) -> float:
    """log(1/x) for a positive fraction, exact in the exponent, so it does
    not underflow when x is below the smallest float."""
    num, den = x.numerator, x.denominator
    shift_n, shift_d = max(num.bit_length() - 53, 0), max(den.bit_length() - 53, 0)
    return (
        math.log(den >> shift_d) + shift_d * math.log(2)
        - math.log(num >> shift_n) - shift_n * math.log(2)
    )


if __name__ == "__main__":
    # Dense-matrix mixing times for the workload checks: reads
    # {"eps": float, "cases": [[[weight, ...], m], ...]} with weights as
    # fraction strings on stdin, writes [[tau, tv_at, tv_before], ...].
    import json
    import sys

    doc = json.load(sys.stdin)
    out = [dense_mixing_time([Fraction(w) for w in ws], m, doc["eps"]) for ws, m in doc["cases"]]
    json.dump(out, sys.stdout)
