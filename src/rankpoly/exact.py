"""Exact evaluation of the subgraph partition functions.

Everything here is exact rational arithmetic (``fractions.Fraction``); there
are no floating-point paths.  Each sum is a per-(statistic, size) counts
table evaluated at the parameters; the table is attached to results for
small m so new parameter points can be evaluated without re-enumeration.
0^0 = 1 throughout.

The tables follow the graph's structure.  A rank is additive over connected
components (the matrix is block-diagonal), so the rank tables are
convolutions of one table per component: a tree component takes a leaf-up
matching DP (on a forest the GF(2) rank of S is its maximum matching, twice
that for the symmetric adjacency).  Any other component of the bipartite
adjacency (R2') takes a row-space DP: its rows are decided one at a time
and the states are the distinct row spaces so far, so the cost follows
their number, not 2^m_C.  Any other component of the symmetric adjacency
(R2), where an edge sets two rows, walks its 2^m_C subsets along a Gray
code (``gf2.gray_ranks``), so that consecutive subsets differ in one edge
and the maintained elimination state absorbs each step as two rank-1
updates.  The component count is a rank too:
kappa(S) = n - rank of the vertex-by-edge incidence of S.  A bridge lowers
the component count by one whenever it is present, so the component table
is the convolution of the incidence-rank walks of the components of G
minus its bridges, shifted binomially over the bridges; a forest walks
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .gf2 import (
    Toggles,
    adjacency_toggles,
    gray_ranks,
    incidence_toggles,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    LimitExceededError,
    components,
    twin_classes,
)

DEFAULT_ENUM_LIMIT = 26
TERMS_RETENTION_LIMIT = 20
ORACLE_VERTEX_LIMIT = 30
PBIS_ORACLE_VERTEX_LIMIT = 24
PBIS_CLASS_BUDGET = 2_000_000

Rational = Fraction
Table = dict[tuple[int, int], int]  # {(statistic, size): count}


@dataclass(frozen=True)
class EvalResult:
    """Exact value plus, when retained, the per-(statistic, size) counts."""

    value: Fraction
    terms: dict[tuple[int, int], int] | None = None


def _check_limit(m: int, max_edges: int | None) -> None:
    limit = DEFAULT_ENUM_LIMIT if max_edges is None else max_edges
    if limit < 0:
        raise ValueError(f"max_edges must be nonnegative, got {limit}")
    if m > limit:
        raise LimitExceededError(f"{m} edges exceeds enumeration limit {limit}")


def _powers(x: Fraction, top: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def evaluate_table(
    counts: list[list[int]], lam: Fraction, mu: Fraction
) -> Fraction:
    """sum counts[r][s] * lam^r * mu^s with 0^0 = 1."""
    lam_p = _powers(Fraction(lam), len(counts) - 1)
    mu_p = _powers(Fraction(mu), len(counts[0]) - 1 if counts else 0)
    total = Fraction(0)
    for r, row in enumerate(counts):
        for s, c in enumerate(row):
            if c:
                total += c * lam_p[r] * mu_p[s]
    return total


def _table_to_terms(counts: list[list[int]]) -> Table:
    return {
        (r, s): c for r, row in enumerate(counts) for s, c in enumerate(row) if c
    }


# ---------------------------------------------------------------------------
# Structure: components, trees and bridges


def _edge_components(g: Graph, subset: int) -> list[tuple[list[int], Graph]]:
    """The connected components of (V, subset) that have an edge, each as
    (its vertices in order, itself renumbered in that order with its edges
    in id order)."""
    _, comps = components(g, subset)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    edge_ids: list[list[int]] = [[] for _ in comps]
    for e, (u, _) in enumerate(g.edges):
        if (subset >> e) & 1:
            edge_ids[where[u]].append(e)
    out = []
    for comp, ids in zip(comps, edge_ids):
        if ids:
            pos = {v: i for i, v in enumerate(comp)}
            edges = tuple((pos[g.edges[e][0]], pos[g.edges[e][1]]) for e in ids)
            out.append((comp, Graph(len(comp), edges)))
    return out


def _bridges(g: Graph) -> int:
    """Bitmask of the edges on no cycle, by one iterative lowlink DFS."""
    inc = g.incidence()
    disc = [0] * g.n  # discovery times from 1; 0 is unvisited
    low = [0] * g.n
    clock = 0
    mask = 0
    for root in range(g.n):
        if disc[root] or not inc[root]:
            continue
        clock += 1
        disc[root] = low[root] = clock
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            v, via, it = stack[-1]
            for e, w in it:
                if e == via:
                    continue
                if disc[w]:
                    low[v] = min(low[v], disc[w])
                else:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, e, iter(inc[w])))
                    break
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        mask |= 1 << via
    return mask


def _add(*tables: Table) -> Table:
    out: Table = {}
    for t in tables:
        for key, c in t.items():
            out[key] = out.get(key, 0) + c
    return out


def _shift(t: Table, dr: int, ds: int) -> Table:
    return {(r + dr, s + ds): c for (r, s), c in t.items()}


def _convolve(a: Table, b: Table) -> Table:
    """The table of disjoint unions: statistics add and sizes add."""
    out: Table = {}
    for (r1, s1), c1 in a.items():
        for (r2, s2), c2 in b.items():
            key = (r1 + r2, s1 + s2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _to_counts(parts: list[Table], rows: int, m: int) -> list[list[int]]:
    total: Table = {(0, 0): 1}
    for part in parts:
        total = _convolve(total, part)
    counts = [[0] * (m + 1) for _ in range(rows)]
    for (r, s), c in total.items():
        counts[r][s] = c
    return counts


def _tree_matching_table(t: Graph) -> Table:
    """{(nu, s): count} over the edge subsets S of the tree t, nu the
    maximum matching of S.

    Leaf-up DP from root 0: each vertex keeps the table of its subtree
    split by whether the greedy leaf-up matching (match a vertex to a free
    child when it has one) leaves the vertex free or matched.  The edge to
    a child is absent, or present with the child matched (no change), or
    present with the child free, which matches a free parent (nu + 1)."""
    inc = t.incidence()
    parent = [-1] * t.n
    order = [0]
    for v in order:
        for _, w in inc[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    free: list[Table] = [{(0, 0): 1} for _ in range(t.n)]
    matched: list[Table] = [{} for _ in range(t.n)]
    for c in reversed(order[1:]):
        p = parent[c]
        child_free, child_matched = free[c], matched[c]
        keep = _add(child_free, child_matched, _shift(child_matched, 0, 1))
        free[p], matched[p] = (
            _convolve(free[p], keep),
            _add(
                _convolve(matched[p], _add(keep, _shift(child_free, 0, 1))),
                _convolve(free[p], _shift(child_free, 1, 1)),
            ),
        )
    return _add(free[0], matched[0])


def _walked(nrows: int, ncols: int, toggles: Toggles) -> Table:
    """The {(rank, size): count} table of one component by the Gray-code
    rank walk."""
    counts = [[0] * (len(toggles) + 1) for _ in range(min(nrows, ncols) + 1)]
    for subset, r in gray_ranks(nrows, ncols, toggles):
        counts[r][subset.bit_count()] += 1
    return _table_to_terms(counts)


Rows = list[list[tuple[int, int]]]  # rows[i]: row i's (vector, size) candidates


def _row_space_table(rows: Rows, last: list[int]) -> Table:
    """The {(rank, size): count} table over the matrices that take one
    candidate (vector, size) for each row; last[i] is the bitmask of the
    columns that no row after row i sets.

    A state is the row space of the rows decided so far, as its reduced
    basis (pivot = lowest bit, no vector holds another's pivot), which is
    unique; it keys a {(retired rank, size): count} table.  Once a column
    is past its last row, the vector of highest pivot among those that hold
    it is added to the others that hold it, which keeps the basis reduced,
    and retires: no later row can cancel it, so it adds 1 to the rank."""
    states: dict[tuple[int, ...], Table] = {(): {(0, 0): 1}}
    for cands, done in zip(rows, last):
        grown: dict[tuple[int, ...], Table] = {}
        for basis, table in states.items():
            for vec, size in cands:
                for b in basis:
                    if vec & b & -b:
                        vec ^= b
                if vec:
                    low = vec & -vec
                    key = tuple(sorted([b ^ vec if b & low else b for b in basis] + [vec]))
                else:
                    key = basis
                dest = grown.setdefault(key, {})
                for (r, s), c in table.items():
                    dest[r, s + size] = dest.get((r, s + size), 0) + c
        states = {}
        for basis, table in grown.items():
            gone, cols = 0, done
            while cols:
                col = cols & -cols
                cols ^= col
                hits = [b for b in basis if b & col]
                if hits:
                    v = max(hits, key=lambda b: b & -b)
                    basis = tuple(sorted(b ^ v if b & col else b for b in basis if b != v))
                    gone += 1
            dest = states.setdefault(basis, {})
            for (r, s), c in table.items():
                dest[r + gone, s] = dest.get((r + gone, s), 0) + c
    return _add(*(_shift(table, len(basis), 0) for basis, table in states.items()))


def _biadjacency_rows(g: Graph, rows: list[int]) -> tuple[Rows, list[int]]:
    """The vertices ``rows`` of g as the rows of its biadjacency against
    the other vertices (column w is bit w): a row's candidates are the
    subsets of its edges, and last[i] holds the columns whose last
    neighbour among the rows is row i."""
    inc = g.incidence()
    cands_of: Rows = []
    last_row: dict[int, int] = {}
    for i, v in enumerate(rows):
        cands = [(0, 0)]
        for _, w in inc[v]:
            cands += [(x | 1 << w, s + 1) for x, s in cands]
            last_row[w] = i
        cands_of.append(cands)
    last = [0] * len(rows)
    for w, i in last_row.items():
        last[i] |= 1 << w
    return cands_of, last


# ---------------------------------------------------------------------------
# Rank tables


def bipartite_rank_size_counts(b: BipartiteGraph, max_edges: int | None = None) -> list[list[int]]:
    """counts[r][s] = number of edge subsets of size s whose bipartite
    adjacency matrix has rank r."""
    _check_limit(b.m, max_edges)
    side_u = set(b.side_u)
    parts = []
    for verts, sub in _edge_components(b.graph, b.graph.full_subset()):
        if sub.m == sub.n - 1:
            parts.append(_tree_matching_table(sub))
        else:
            # rank(M) = rank(M^T): rows on the side of lower maximum degree
            deg = sub.degrees()
            u = [i for i, v in enumerate(verts) if v in side_u]
            w = [i for i, v in enumerate(verts) if v not in side_u]
            rows = min(u, w, key=lambda side: max(deg[i] for i in side))
            parts.append(_row_space_table(*_biadjacency_rows(sub, rows)))
    return _to_counts(parts, min(len(b.side_u), len(b.side_w)) + 1, b.m)


def graph_rank_size_counts(g: Graph, max_edges: int | None = None) -> list[list[int]]:
    """counts[r][s] over subsets, with r the rank of the full (symmetric,
    zero-diagonal) adjacency matrix of (V, S)."""
    _check_limit(g.m, max_edges)
    parts = []
    for _, sub in _edge_components(g, g.full_subset()):
        if sub.m == sub.n - 1:
            parts.append({(2 * nu, s): c for (nu, s), c in _tree_matching_table(sub).items()})
        else:
            parts.append(_walked(sub.n, sub.n, adjacency_toggles(sub)))
    return _to_counts(parts, g.n + 1, g.m)


# ---------------------------------------------------------------------------
# The rank-weighted sums


def r2_prime(
    b: BipartiteGraph,
    lam: Fraction,
    mu: Fraction,
    max_edges: int | None = None,
) -> EvalResult:
    """sum over S of lam^(bipartite rank of S) * mu^|S|."""
    counts = bipartite_rank_size_counts(b, max_edges)
    value = evaluate_table(counts, Fraction(lam), Fraction(mu))
    terms = _table_to_terms(counts) if b.m <= TERMS_RETENTION_LIMIT else None
    return EvalResult(value, terms)


def r2(
    g: Graph,
    lam: Fraction,
    mu: Fraction,
    max_edges: int | None = None,
) -> EvalResult:
    """sum over S of lam^(adjacency rank of S) * mu^|S| for a general graph."""
    counts = graph_rank_size_counts(g, max_edges)
    value = evaluate_table(counts, Fraction(lam), Fraction(mu))
    terms = _table_to_terms(counts) if g.m <= TERMS_RETENTION_LIMIT else None
    return EvalResult(value, terms)


# ---------------------------------------------------------------------------
# Component-weighted sums (random cluster / Tutte)


def component_size_counts(g: Graph, max_edges: int | None = None) -> list[list[int]]:
    """counts[kappa][s] = number of subsets of size s with kappa components.

    With B the bridges, kappa(S) = kappa_{G-B}(S - B) - |S & B|: each
    component C of G - B with an edge walks the incidence rank r of its
    subsets, kappa_C = n_C - r, every other vertex adds one component, and
    choosing j of the bridges (C(|B|, j) ways) lowers kappa by j and raises
    |S| by j."""
    _check_limit(g.m, max_edges)
    bridges = _bridges(g)
    isolated = g.n
    parts = []
    for verts, sub in _edge_components(g, g.full_subset() & ~bridges):
        ranks = _walked(sub.n, sub.m, incidence_toggles(sub))
        parts.append({(sub.n - r, s): c for (r, s), c in ranks.items()})
        isolated -= len(verts)
    parts.append({(isolated, 0): 1})
    nb = bin(bridges).count("1")
    parts.append({(-j, j): comb(nb, j) for j in range(nb + 1)})
    return _to_counts(parts, g.n + 1, g.m)


def random_cluster(
    g: Graph, q: Fraction, mu: Fraction, max_edges: int | None = None
) -> EvalResult:
    """sum over S of q^(number of components of (V,S)) * mu^|S|.

    Isolated vertices count as components.
    """
    counts = component_size_counts(g, max_edges)
    value = evaluate_table(counts, Fraction(q), Fraction(mu))
    terms = _table_to_terms(counts) if g.m <= TERMS_RETENTION_LIMIT else None
    return EvalResult(value, terms)


def tutte(g: Graph, x: Fraction, y: Fraction, max_edges: int | None = None) -> Fraction:
    """Tutte polynomial at (x, y): sum over subsets of
    (x-1)^(kappa(S)-kappa(E)) * (y-1)^(|S|-|V|+kappa(S))."""
    x, y = Fraction(x), Fraction(y)
    counts = component_size_counts(g, max_edges)
    kappa_full, _ = components(g, g.full_subset())
    total = Fraction(0)
    xm = _powers(x - 1, g.n)
    ym = _powers(y - 1, g.m + g.n)
    for kappa, row in enumerate(counts):
        for s, c in enumerate(row):
            if c:
                total += c * xm[kappa - kappa_full] * ym[s - g.n + kappa]
    return total


# ---------------------------------------------------------------------------
# Counting specialisations


def count_bis(b: BipartiteGraph, max_edges: int | None = None) -> int:
    """Number of independent sets of a bipartite graph, via the rank sum:
    2^(|U|+|W|-|E|) * (rank sum at lam=1/2, mu=1)."""
    val = r2_prime(b, Fraction(1, 2), Fraction(1), max_edges).value
    val *= Fraction(2) ** (b.n - b.m)
    if val.denominator != 1:
        raise ArithmeticError(f"independent-set count came out non-integer: {val}")
    return val.numerator


def count_independent_sets(g: Graph) -> int:
    """Independent sets of any graph by branching enumeration (the oracle)."""
    if g.n > ORACLE_VERTEX_LIMIT:
        raise LimitExceededError(
            f"oracle limited to {ORACLE_VERTEX_LIMIT} vertices, got {g.n}"
        )
    closed = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    memo: dict[int, int] = {0: 1}

    def count(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        res = count(mask & ~(1 << v)) + count(mask & ~closed[v])
        memo[mask] = res
        return res

    return count((1 << g.n) - 1)


def count_bis_oracle(g: Graph | BipartiteGraph) -> int:
    if isinstance(g, BipartiteGraph):
        g = g.graph
    return count_independent_sets(g)


def count_pbis(
    b: BipartiteGraph, eta: Fraction, max_edges: int | None = None
) -> Fraction:
    """Labelings weighted by (1+eta)^(edges with both ends 1) * (1-eta)^(rest),
    evaluated through the rank sum: 2^|V| * (rank sum at lam=1/2, mu=-eta)."""
    eta = Fraction(eta)
    val = r2_prime(b, Fraction(1, 2), -eta, max_edges).value
    return val * Fraction(2) ** b.n


def pbis_weight_counts(g: Graph | BipartiteGraph) -> list[int]:
    """counts[w] = number of 0/1 vertex labelings with w fully-1 edges."""
    if isinstance(g, BipartiteGraph):
        g = g.graph
    if g.n > PBIS_ORACLE_VERTEX_LIMIT:
        raise LimitExceededError(
            f"labeling oracle limited to {PBIS_ORACLE_VERTEX_LIMIT} vertices, got {g.n}"
        )
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    counts = [0] * (g.m + 1)
    ones_nbrs = [0] * g.n  # currently-1 neighbours of each vertex
    cur = 0
    w = 0
    counts[0] += 1
    for t in range(1, 1 << g.n):
        v = (t & -t).bit_length() - 1
        bit = 1 << v
        cur ^= bit
        if cur & bit:
            w += ones_nbrs[v]
            for u in nbrs[v]:
                ones_nbrs[u] += 1
        else:
            for u in nbrs[v]:
                ones_nbrs[u] -= 1
            w -= ones_nbrs[v]
        counts[w] += 1
    return counts


def count_pbis_oracle(g: Graph | BipartiteGraph, eta: Fraction) -> Fraction:
    """Direct sum over all 2^n labelings."""
    eta = Fraction(eta)
    counts = pbis_weight_counts(g)
    m = len(counts) - 1
    up = _powers(1 + eta, m)
    down = _powers(1 - eta, m)
    return sum((c * up[w] * down[m - w] for w, c in enumerate(counts) if c), Fraction(0))


def _twin_classes(g: Graph) -> tuple[list[int], list[list[int]]]:
    """Group vertices by open neighborhood.  Returns (class sizes, quotient
    adjacency lists); two classes are adjacent iff their members are fully
    joined (automatic for equal-neighborhood classes)."""
    classes = twin_classes(g)
    member = {v: i for i, verts in enumerate(classes) for v in verts}
    adj: list[set[int]] = [set() for _ in classes]
    for u, v in g.edges:
        adj[member[u]].add(member[v])
        adj[member[v]].add(member[u])
    return [len(verts) for verts in classes], [sorted(a) for a in adj]


def count_pbis_twins(
    g: Graph | BipartiteGraph, eta: Fraction, class_budget: int = PBIS_CLASS_BUDGET
) -> Fraction:
    """Labeling sum regrouped over classes of vertices with equal
    neighborhoods; exact for any graph, fast when there are few classes.

    Label counts are enumerated only on the classes outside an independent
    set B of the class quotient, chosen greedily, largest first.  With those
    fixed, the n_b members of a class b in B each see N_b neighbours, S_b of
    them labelled 1, and together contribute
    ((1+eta)^S_b (1-eta)^(N_b-S_b) + (1-eta)^N_b)^n_b.  The sum is taken in
    integers with one division at the end, so eta = +-1 stays exact."""
    if isinstance(g, BipartiteGraph):
        g = g.graph
    eta = Fraction(eta)
    sizes, adj = _twin_classes(g)
    in_b = [False] * len(sizes)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        in_b[i] = not any(in_b[j] for j in adj[i])
    rest = [i for i in range(len(sizes)) if not in_b[i]]
    work = 1
    for i in rest:
        work *= sizes[i] + 1
        if work > class_budget:
            raise LimitExceededError("too many twin-class label vectors")
    closed = [i for i in range(len(sizes)) if in_b[i]]
    pairs = [(i, j) for i in rest for j in adj[i] if j > i and not in_b[j]]
    e_rest = sum(sizes[i] * sizes[j] for i, j in pairs)
    by_key: dict[tuple[int, ...], int] = {}
    hs = [0] * len(sizes)

    def rec(k: int, mult: int) -> None:
        if k == len(rest):
            w = sum(hs[i] * hs[j] for i, j in pairs)
            key = (w, *(sum(hs[a] for a in adj[b]) for b in closed))
            by_key[key] = by_key.get(key, 0) + mult
            return
        i = rest[k]
        for h in range(sizes[i] + 1):
            hs[i] = h
            rec(k + 1, mult * comb(sizes[i], h))

    rec(0, 1)
    # Every edge weighs (d +- a) / d for eta = a / d: sum integers, divide once.
    a, d = eta.numerator, eta.denominator
    up = [(d + a) ** k for k in range(g.m + 1)]
    down = [(d - a) ** k for k in range(g.m + 1)]
    factors = []
    for b in closed:
        nb = sum(sizes[i] for i in adj[b])
        factors.append([(up[s] * down[nb - s] + down[nb]) ** sizes[b] for s in range(nb + 1)])
    total = 0
    for (w, *ss), c in by_key.items():
        term = c * up[w] * down[e_rest - w]
        for f, s in zip(factors, ss):
            term *= f[s]
        total += term
    return Fraction(total, d**g.m)


def count_pbis_auto(
    b: BipartiteGraph,
    eta: Fraction,
    max_edges: int | None = None,
) -> Fraction:
    """Exact permissive count by whichever exact route fits the instance:
    the rank-sum identity, the twin-class regrouping, or the labeling sum."""
    _check_limit(0, max_edges)  # refuses a negative limit
    if b.m <= (DEFAULT_ENUM_LIMIT if max_edges is None else max_edges):
        return count_pbis(b, eta, max_edges)
    try:
        return count_pbis_twins(b, eta)
    except LimitExceededError:
        pass
    if b.n <= PBIS_ORACLE_VERTEX_LIMIT:
        return count_pbis_oracle(b, eta)
    raise LimitExceededError(
        f"graph too large for any exact route (n={b.n}, m={b.m})"
    )


def count_matchings(g: Graph, max_edges: int | None = None) -> int:
    """Subsets whose adjacency rank equals twice their size are exactly the
    matchings; count them from the rank table."""
    counts = graph_rank_size_counts(g, max_edges)
    return sum(
        counts[2 * s][s] for s in range(len(counts[0])) if 2 * s < len(counts)
    )


def count_perfect_matchings(g: Graph, max_edges: int | None = None) -> int:
    """Full-rank subsets of minimum size n/2 are exactly the perfect
    matchings (none exist for odd n)."""
    if g.n % 2:
        return 0
    counts = graph_rank_size_counts(g, max_edges)
    half = g.n // 2
    if half >= len(counts[0]):
        return 0
    return counts[g.n][half]


# ---------------------------------------------------------------------------
# Purity-based evaluation (W-degrees <= 2 only)


def _require_w_degrees_at_most_2(b: BipartiteGraph) -> None:
    deg = b.graph.degrees()
    for v in b.side_w:
        if deg[v] > 2:
            raise ValueError(f"W-side vertex {v} has degree {deg[v]} > 2")


def purity_split_sums(
    ups: BipartiteGraph,
    root: int,
    lam: Fraction,
    mu: Fraction,
    max_edges: int | None = None,
) -> tuple[Fraction, Fraction]:
    """(Z_pure, Z_mixed): sums of lam^(-pure component count) * mu^|S| over
    subsets, split by whether the root's component is pure.

    With W degrees <= 2 the pure component count is |U| - rank.  A pendant
    W vertex on the root raises the rank by one exactly when the root's
    component is pure, so with A the (rank, size) table of ups and B that of
    ups plus the pendant edge, C[r][s] = B[r][s+1] - A[r][s+1] counts
    pure[r-1][s] + mixed[r][s], and pure[r][s] = pure[r-1][s] + A[r][s] -
    C[r][s].  Requires the root on U and lam != 0; the enumeration limit
    applies to ups alone."""
    lam, mu = Fraction(lam), Fraction(mu)
    if lam == 0:
        raise ValueError("lam must be nonzero (negative powers of lam appear)")
    _require_w_degrees_at_most_2(ups)
    _check_limit(ups.m, max_edges)
    if root not in ups.side_u:
        raise ValueError(f"root {root} must lie on the U side")
    g, m = ups.graph, ups.m
    pendant = BipartiteGraph(
        Graph(g.n + 1, g.edges + ((root, g.n),)), ups.side_u, ups.side_w + (g.n,)
    )
    a = bipartite_rank_size_counts(ups, m)
    b = bipartite_rank_size_counts(pendant, m + 1)
    pure = [[0] * (m + 1) for _ in a]
    for r, row in enumerate(a):
        for s in range(m + 1):
            added = b[r][s + 1] - (row[s + 1] if s < m else 0)
            pure[r][s] = (pure[r - 1][s] if r else 0) + row[s] - added
    mixed = [[c - p for c, p in zip(row, prow)] for row, prow in zip(a, pure)]
    scale = lam ** -len(ups.side_u)
    return scale * evaluate_table(pure, lam, mu), scale * evaluate_table(mixed, lam, mu)


def r2_prime_via_purity(
    b: BipartiteGraph,
    lam: Fraction,
    mu: Fraction,
    max_edges: int | None = None,
) -> EvalResult:
    """Rank sum computed as lam^(|U| - pure component count) instead of via
    the matrix; must agree exactly with :func:`r2_prime`."""
    lam, mu = Fraction(lam), Fraction(mu)
    _require_w_degrees_at_most_2(b)
    _check_limit(b.m, max_edges)
    nu = len(b.side_u)
    counts = [[0] * (b.m + 1) for _ in range(nu + 1)]
    g = b.graph
    w_side = b.side_w
    for s in range(1 << b.m):
        _, _, pure = components(g, s, w_side)
        kpure = sum(pure)
        counts[nu - kpure][bin(s).count("1")] += 1
    value = evaluate_table(counts, lam, mu)
    terms = _table_to_terms(counts) if b.m <= TERMS_RETENTION_LIMIT else None
    return EvalResult(value, terms)


# ---------------------------------------------------------------------------
# Gadget closed forms


def fan_gadget_closed_forms(
    k: int, lam: Fraction, mu: Fraction
) -> tuple[Fraction, Fraction]:
    """(X, Y) for the fan gadget: X = lam * Z_pure and Y = X + Z_mixed.

    X = (mu+1)^(k+1) + mu^2 + 1/lam - 1
    Y = (mu+1) * ((mu+1)^(k+1) + 1/lam - 1)
    """
    lam, mu = Fraction(lam), Fraction(mu)
    x = (mu + 1) ** (k + 1) + mu * mu + 1 / lam - 1
    y = (mu + 1) * ((mu + 1) ** (k + 1) + 1 / lam - 1)
    return x, y


def biclique_gadget_closed_forms(k: int, lam: Fraction) -> tuple[Fraction, Fraction]:
    """(X, Y) for the biclique gadget at mu = -2.

    X = 1/lam^2 + 25^k/lam - 3 + 3*25^k + 1/lam
    Y = -1/lam^2 - 25^k/lam - 1 + 25^k + 3/lam
    """
    lam = Fraction(lam)
    inv = 1 / lam
    five = Fraction(5) ** (2 * k)
    x = inv * inv + five * inv - 3 + 3 * five + inv
    y = -inv * inv - five * inv - 1 + five + 3 * inv
    return x, y
