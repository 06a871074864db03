"""Graph and bipartite-graph values, edge subsets, and graph surgery.

Edge subsets are plain ints used as bitmasks over edge ids (bit i set means
edge i is in the subset).  Edge ids are assigned in input order and are never
reindexed by any construction here; every construction documents the id
layout of the graph it builds so that orderings stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

EdgeSubset = int

_GENERAL_MATCHING_LIMIT = 24


class LimitExceededError(ValueError):
    """An operation was asked to enumerate past its documented size limit."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no self-loops, no duplicate edges.

    ``edges[i]`` is the unordered pair with edge id ``i``.  ``labels`` is an
    optional per-vertex name tuple used only for debugging output.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise ValueError("labels must have one entry per vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

    def full_subset(self) -> EdgeSubset:
        return (1 << self.m) - 1

    def incidence(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (edge id, other endpoint)."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append((i, v))
            inc[v].append((i, u))
        return inc

    def degrees(self, subset: EdgeSubset | None = None) -> list[int]:
        deg = [0] * self.n
        for i, (u, v) in enumerate(self.edges):
            if subset is None or (subset >> i) & 1:
                deg[u] += 1
                deg[v] += 1
        return deg

    def isolated_count(self) -> int:
        """Number of vertices with no incident edge at all."""
        return sum(1 for d in self.degrees() if d == 0)


@dataclass(frozen=True)
class BipartiteGraph:
    """A graph with a declared bipartition (U, W); every edge crosses sides."""

    graph: Graph
    side_u: tuple[int, ...]
    side_w: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "side_u", tuple(self.side_u))
        object.__setattr__(self, "side_w", tuple(self.side_w))
        su, sw = set(self.side_u), set(self.side_w)
        if su & sw:
            raise ValueError("U and W overlap")
        if su | sw != set(range(self.graph.n)):
            raise ValueError("U and W must partition the vertex set")
        if len(self.side_u) != len(su) or len(self.side_w) != len(sw):
            raise ValueError("duplicate vertex in a side")
        for u, v in self.graph.edges:
            if (u in su) == (v in su):
                raise ValueError(f"edge ({u},{v}) does not cross the bipartition")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.graph.edges

    def u_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.side_u)}

    def w_index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.side_w)}

    def oriented_edges(self) -> list[tuple[int, int]]:
        """Edges as (U-position, W-position) pairs, in edge-id order."""
        ui, wi = self.u_index(), self.w_index()
        out = []
        for u, v in self.graph.edges:
            if u in ui:
                out.append((ui[u], wi[v]))
            else:
                out.append((ui[v], wi[u]))
        return out


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree whose nodes carry vertex bags covering every edge coherently."""

    tree: Graph
    bags: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "bags", tuple(tuple(b) for b in self.bags))
        if len(self.bags) != self.tree.n:
            raise ValueError("one bag per tree node required")

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def validate_for(self, g: Graph) -> None:
        """Raise unless this is a valid tree decomposition of ``g``."""
        kappa, comps = components(self.tree, self.tree.full_subset())
        if self.tree.m != self.tree.n - 1 or kappa != 1:
            raise ValueError("decomposition graph is not a tree")
        bagsets = [set(b) for b in self.bags]
        for b in bagsets:
            for v in b:
                if not (0 <= v < g.n):
                    raise ValueError(f"bag vertex {v} out of range")
        for u, v in g.edges:
            if not any(u in b and v in b for b in bagsets):
                raise ValueError(f"edge ({u},{v}) not inside any bag")
        # Connectivity of {h : v in bag_h} for each vertex, checked by BFS.
        inc = self.tree.incidence()
        for v in range(g.n):
            holders = [h for h, b in enumerate(bagsets) if v in b]
            if not holders:
                continue
            seen = {holders[0]}
            stack = [holders[0]]
            while stack:
                h = stack.pop()
                for _, other in inc[h]:
                    if other not in seen and v in bagsets[other]:
                        seen.add(other)
                        stack.append(other)
            if len(seen) != len(holders):
                raise ValueError(f"bags containing vertex {v} are not connected")


# ---------------------------------------------------------------------------
# Component analysis


def components(
    g: Graph, subset: EdgeSubset, w_side: Iterable[int] | None = None
) -> tuple[int, list[list[int]]] | tuple[int, list[list[int]], list[bool]]:
    """Connected components of (V, subset), isolated vertices included.

    Returns (kappa, components).  With ``w_side`` given (vertices of the W
    side of a bipartition), additionally returns per-component purity flags:
    a component is pure iff every W-vertex in it has subset-degree exactly 2.
    Components with no W-vertex are pure; an isolated W-vertex is mixed.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deg = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        if (subset >> i) & 1:
            deg[u] += 1
            deg[v] += 1
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv

    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    comps = list(groups.values())
    kappa = len(comps)
    if w_side is None:
        return kappa, comps
    wset = set(w_side)
    pure = [all(deg[v] == 2 for v in comp if v in wset) for comp in comps]
    return kappa, comps, pure


def pure_component_count(b: BipartiteGraph, subset: EdgeSubset) -> int:
    """Number of pure components of (V, subset) w.r.t. b's W side."""
    _, _, pure = components(b.graph, subset, b.side_w)
    return sum(pure)


def is_connected(g: Graph, subset: EdgeSubset | None = None) -> bool:
    s = g.full_subset() if subset is None else subset
    kappa, _ = components(g, s)
    return kappa <= 1


def twin_classes(g: Graph) -> list[list[int]]:
    """Vertices grouped by equal open neighbourhood, each class in vertex
    order and the classes ordered by their smallest vertex.

    Twins are never adjacent, and swapping two twins with a non-empty
    neighbourhood maps edge (u, x) to (v, x) for every common neighbour x:
    a graph automorphism that fixes every other edge.  Isolated vertices
    form one class."""
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    buckets: dict[int, list[int]] = {}
    for v in range(g.n):
        buckets.setdefault(nbr[v], []).append(v)
    return list(buckets.values())


# ---------------------------------------------------------------------------
# Maximum matching


def _two_color(g: Graph, subset: EdgeSubset) -> list[int] | None:
    """2-coloring of (V, subset); None if it has an odd cycle."""
    color = [-1] * g.n
    inc = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        if (subset >> i) & 1:
            inc[u].append(v)
            inc[v].append(u)
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in inc[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def bipartition_of(g: Graph) -> BipartiteGraph:
    """Canonical bipartition by 2-coloring (component roots go to U side)."""
    color = _two_color(g, g.full_subset())
    if color is None:
        raise ValueError("graph is not bipartite")
    side_u = tuple(v for v in range(g.n) if color[v] == 0)
    side_w = tuple(v for v in range(g.n) if color[v] == 1)
    return BipartiteGraph(g, side_u, side_w)


def _max_matching_augmenting(g: Graph, subset: EdgeSubset, color: list[int]) -> int:
    left = [v for v in range(g.n) if color[v] == 0]
    adj: dict[int, list[int]] = {v: [] for v in left}
    for i, (u, v) in enumerate(g.edges):
        if (subset >> i) & 1:
            if color[u] == 0:
                adj[u].append(v)
            else:
                adj[v].append(u)
    match_right: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for w in adj[u]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match_right or try_augment(match_right[w], seen):
                match_right[w] = u
                return True
        return False

    size = 0
    for u in left:
        if try_augment(u, set()):
            size += 1
    return size


def max_matching(g: Graph, subset: EdgeSubset | None = None) -> int:
    """Size of a maximum matching in (V, subset).

    Bipartite subgraphs use augmenting paths; subgraphs with an odd cycle
    fall back to exhaustive search and are rejected above 24 edges.
    """
    s = g.full_subset() if subset is None else subset
    color = _two_color(g, s)
    if color is not None:
        return _max_matching_augmenting(g, s, color)
    edges = [e for i, e in enumerate(g.edges) if (s >> i) & 1]
    if len(edges) > _GENERAL_MATCHING_LIMIT:
        raise LimitExceededError(
            f"general matching limited to {_GENERAL_MATCHING_LIMIT} edges, got {len(edges)}"
        )
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used: int) -> int:
        if i == len(edges):
            return 0
        key = (i, used)
        if key in memo:
            return memo[key]
        u, v = edges[i]
        res = best(i + 1, used)
        if not (used >> u) & 1 and not (used >> v) & 1:
            res = max(res, 1 + best(i + 1, used | (1 << u) | (1 << v)))
        memo[key] = res
        return res

    return best(0, 0)


# ---------------------------------------------------------------------------
# Constructions


def two_stretch(h: Graph) -> BipartiteGraph:
    """Replace every edge with a length-2 path through a fresh midpoint.

    Vertex layout: originals keep ids 0..n-1 (U side); the midpoint of edge i
    gets id n+i (W side).  Edge layout: edge i of h becomes result edges 2i
    (u side half) and 2i+1 (v side half).
    """
    n, m = h.n, h.m
    labels = [h.labels[v] if h.labels else f"v{v}" for v in range(n)]
    labels += [f"mid{i}" for i in range(m)]
    edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(h.edges):
        edges.append((u, n + i))
        edges.append((v, n + i))
    g = Graph(n + m, tuple(edges), tuple(labels))
    return BipartiteGraph(g, tuple(range(n)), tuple(range(n, n + m)))


def stretch_sum(h: Graph, ups: BipartiteGraph, root: int) -> BipartiteGraph:
    """2-stretch of h with a fresh copy of ``ups`` glued onto each vertex.

    ``root`` must lie on the U side of ``ups``; each original vertex v of h
    is identified with the root of its own copy.  Layout: the 2-stretch of h
    first (ids as in :func:`two_stretch`), then, per original vertex v in
    increasing order, the non-root vertices of its copy in ``ups`` vertex
    order.  Edges: the 2m stretch edges first, then each copy's edges in
    ``ups`` edge order.
    """
    if root not in ups.side_u:
        raise ValueError("gadget root must lie on the U side")
    base = two_stretch(h)
    ups_labels = ups.graph.labels or tuple(f"g{v}" for v in range(ups.n))
    in_u = set(ups.side_u)
    labels = list(base.graph.labels)
    edges = list(base.edges)
    side_u, side_w = list(base.side_u), list(base.side_w)
    for c in range(h.n):
        vmap = {root: c}
        for v in range(ups.n):
            if v != root:
                # fresh ids only grow, so both sides stay sorted
                vmap[v] = len(labels)
                (side_u if v in in_u else side_w).append(len(labels))
                labels.append(f"c{c}:{ups_labels[v]}")
        edges.extend((vmap[u], vmap[v]) for u, v in ups.edges)
    g = Graph(len(labels), tuple(edges), tuple(labels))
    return BipartiteGraph(g, tuple(side_u), tuple(side_w))


def fan_gadget(k: int) -> tuple[BipartiteGraph, int]:
    """Rooted gadget with U={u0,u1}, W={v0..vk}: edge u0-v0 plus u1-vi for all i.

    Returns (gadget, root) with root=u0.  k+2 edges; all W degrees <= 2.
    Vertex ids: u0=0, u1=1, v_i=2+i.  Edge ids: (u0,v0)=0, then (u1,v_i)=i+1.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    labels = ["u0", "u1"] + [f"v{i}" for i in range(k + 1)]
    edges = [(0, 2)] + [(1, 2 + i) for i in range(k + 1)]
    g = Graph(k + 3, tuple(edges), tuple(labels))
    return BipartiteGraph(g, (0, 1), tuple(range(2, k + 3))), 0


def biclique_gadget(k: int) -> tuple[BipartiteGraph, int]:
    """Rooted gadget with U={u0,u1,u2}, W={v0..v_{2k}}: edges u0-v0, u1-v0,
    and the complete bipartite join of {u1,u2} with {v1..v_{2k}}.

    Returns (gadget, root) with root=u0.  4k+2 edges; all W degrees are 2.
    Vertex ids: u0=0, u1=1, u2=2, v_i=3+i.  Edge ids: (u0,v0)=0, (u1,v0)=1,
    then for i=1..2k the pair (u1,v_i), (u2,v_i).
    """
    if k < 1:
        raise ValueError("k must be positive (the biclique part degenerates at k=0)")
    labels = ["u0", "u1", "u2"] + [f"v{i}" for i in range(2 * k + 1)]
    edges = [(0, 3), (1, 3)]
    for i in range(1, 2 * k + 1):
        edges.append((1, 3 + i))
        edges.append((2, 3 + i))
    g = Graph(2 * k + 4, tuple(edges), tuple(labels))
    return BipartiteGraph(g, (0, 1, 2), tuple(range(3, 2 * k + 4))), 0


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def cloud_blowup(g: Graph, p: int, k: int) -> BipartiteGraph:
    """Blow each vertex into a cloud of k*p twins and each edge into a cloud
    of p-1 twins, joining incident clouds completely.

    Requires p an odd prime and k >= 1.  Vertex ids: vertex clouds first
    (cloud of v occupies k*p consecutive ids starting at v*k*p), then edge
    clouds (cloud of edge e occupies p-1 ids).  Result edges: per edge e of g
    in id order, per endpoint in (u, v) order, the complete join of the
    endpoint's cloud with e's cloud, cloud members in id order.
    """
    if not is_prime(p) or p <= 2:
        raise ValueError("p must be an odd prime")
    if k < 1:
        raise ValueError("k must be positive")
    vc, ec = k * p, p - 1
    n_new = g.n * vc + g.m * ec
    edges: list[tuple[int, int]] = []
    base_e = g.n * vc
    for i, (u, v) in enumerate(g.edges):
        for end in (u, v):
            for a in range(vc):
                for b in range(ec):
                    edges.append((end * vc + a, base_e + i * ec + b))
    labels = [f"v{v}.{a}" for v in range(g.n) for a in range(vc)]
    labels += [f"e{i}.{b}" for i in range(g.m) for b in range(ec)]
    gg = Graph(n_new, tuple(edges), tuple(labels))
    return BipartiteGraph(gg, tuple(range(base_e)), tuple(range(base_e, n_new)))


# ---------------------------------------------------------------------------
# Small builders (shared by tests, the CLI, and scripts)


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(k: int) -> Graph:
    """Center 0 joined to leaves 1..k."""
    return Graph(k + 1, tuple((0, i) for i in range(1, k + 1)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    g = Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))
    return BipartiteGraph(g, tuple(range(a)), tuple(range(a, a + b)))


def random_tree(rng, n: int) -> Graph:
    """Random recursive tree: vertex i > 0 joins a uniform earlier vertex,
    drawn in order with ``rng.randrange`` (a ``random.Random``)."""
    return Graph(n, tuple((rng.randrange(i), i) for i in range(1, n)))


def random_bipartite(rng, a: int, b: int, density: float = 0.5) -> BipartiteGraph:
    """U = 0..a-1, W = a..a+b-1, each of the a*b pairs an edge when
    ``rng.random() < density``, drawn in (U, W) order."""
    poss = [(i, a + j) for i in range(a) for j in range(b)]
    g = Graph(a + b, tuple(e for e in poss if rng.random() < density))
    return BipartiteGraph(g, tuple(range(a)), tuple(range(a, a + b)))


def subset_from_edges(g: Graph, pairs: Sequence[tuple[int, int]]) -> EdgeSubset:
    """Bitmask for the given unordered vertex pairs (must all be edges)."""
    index = {}
    for i, (u, v) in enumerate(g.edges):
        index[(u, v)] = i
        index[(v, u)] = i
    s = 0
    for pair in pairs:
        s |= 1 << index[tuple(pair)]
    return s
