"""Bit-packed linear algebra over the two-element field.

Rows are Python ints used as bitmasks (bit j = column j), so row operations
are single XORs regardless of width.  ``F2Matrix`` is an immutable value;
``RankProfile`` is a single-owner mutable elimination state that keeps rank
(and a left-nullspace basis) current under single-entry flips and rank-1
updates M + u v^T, and reads the rank change of such an update without
applying it.  ``gray_ranks`` walks every edge subset of a graph along a
Gray code, one maintained profile for all of them, for any of the three
per-edge encodings (bipartite adjacency, symmetric adjacency, incidence);
it builds the R2 table of ``exact`` and is the reference the exact chains'
whole-array rank table (``mixing``) is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import BipartiteGraph, EdgeSubset, Graph


@dataclass(frozen=True)
class F2Matrix:
    rows: int
    cols: int
    data: tuple[int, ...]  # data[i] = bitmask of row i

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(int(r) for r in self.data))
        if len(self.data) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r & ~mask:
                raise ValueError("set bit beyond declared column count")

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1


def zero_matrix(rows: int, cols: int) -> F2Matrix:
    return F2Matrix(rows, cols, (0,) * rows)


def identity_matrix(n: int) -> F2Matrix:
    return F2Matrix(n, n, tuple(1 << i for i in range(n)))


def rank(m: F2Matrix) -> int:
    """Rank over the two-element field by plain Gaussian elimination.

    Independent of RankProfile on purpose: serves as its correctness oracle.
    """
    return rank_of_rows(list(m.data))


def rank_of_rows(rows: list[int]) -> int:
    pivots: list[int] = []  # reduced rows, one pivot (lowest set bit) each
    r = 0
    for row in rows:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
            r += 1
    return r


def adjacency(g: Graph, subset: EdgeSubset | None = None) -> F2Matrix:
    """n x n symmetric zero-diagonal adjacency matrix of (V, subset)."""
    s = g.full_subset() if subset is None else subset
    rows = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        if (s >> i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return F2Matrix(g.n, g.n, tuple(rows))


def bipartite_adjacency(b: BipartiteGraph, subset: EdgeSubset | None = None) -> F2Matrix:
    """|U| x |W| matrix with entry (u, w) = 1 iff {u, w} is in the subset."""
    s = b.graph.full_subset() if subset is None else subset
    rows = [0] * len(b.side_u)
    for eid, (ui, wi) in enumerate(b.oriented_edges()):
        if (s >> eid) & 1:
            rows[ui] |= 1 << wi
    return F2Matrix(len(b.side_u), len(b.side_w), tuple(rows))


def incidence(g: Graph, subset: EdgeSubset | None = None) -> F2Matrix:
    """n x m vertex-by-edge incidence matrix of (V, subset); its rank is
    n minus the number of connected components."""
    s = g.full_subset() if subset is None else subset
    rows = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        if (s >> i) & 1:
            rows[u] |= 1 << i
            rows[v] |= 1 << i
    return F2Matrix(g.n, g.m, tuple(rows))


# Per-edge encodings: toggles[e] is the tuple of (rows, cols) rank-1 updates
# M + u v^T that toggle edge e in the matrix of the same name above.
Toggles = list[tuple[tuple[int, int], ...]]


def bipartite_adjacency_toggles(b: BipartiteGraph) -> Toggles:
    """Entry (u, w) of the bipartite adjacency: one update per edge."""
    return [((1 << ui, 1 << wi),) for ui, wi in b.oriented_edges()]


def adjacency_toggles(g: Graph) -> Toggles:
    """Entries (u, v) and (v, u) of the symmetric adjacency: two updates."""
    return [((1 << u, 1 << v), (1 << v, 1 << u)) for u, v in g.edges]


def incidence_toggles(g: Graph) -> Toggles:
    """Column e of the incidence, e_u + e_v: one update per edge."""
    return [(((1 << u) | (1 << v), 1 << e),) for e, (u, v) in enumerate(g.edges)]


class RankProfile:
    """Maintained elimination state of a matrix under entry flips and
    rank-1 updates.

    Keeps an invertible row transform T with R = T*M where the nonzero rows
    of R have pairwise distinct pivots (lowest set bits), so rank = number of
    nonzero R rows and {T[k] : R[k] = 0} is a left-nullspace basis.  A
    rank-1 update M + u v^T (``flip``; u, v bitmasks over rows and columns)
    XORs v into every R row whose T row meets u an odd number of times, in
    one scan; only rows whose pivot is disturbed get re-eliminated.  An
    entry flip (``flip_entry``) is the update with u = e_i, v = e_j.
    ``delta_if_flip`` reads the rank change of an update from the current
    T and R without touching any state.

    With ``paranoid=True`` every flip is cross-checked against a from-scratch
    elimination (debugging aid; tests use it on small matrices).
    """

    def __init__(self, source: F2Matrix, paranoid: bool = False):
        self.nrows = source.rows
        self.ncols = source.cols
        self.rows: list[int] = list(source.data)
        self.paranoid = paranoid
        self.T: list[int] = [1 << k for k in range(self.nrows)]
        self.R: list[int] = list(source.data)
        self.pivot_owner: dict[int, int] = {}
        self.pivot_of: list[int] = [-1] * self.nrows  # -1 = zero row
        self.null_rows: list[int] = []  # the k with pivot_of[k] == -1
        self.rank = 0
        for k in range(self.nrows):
            self._insert(k)

    def _insert(self, k: int) -> None:
        """Eliminate row k, which holds no pivot and is not in null_rows."""
        v = self.R[k]
        t = self.T[k]
        owner = self.pivot_owner
        R, T = self.R, self.T
        while v:
            p = (v & -v).bit_length() - 1
            o = owner.get(p)
            if o is None:
                owner[p] = k
                self.pivot_of[k] = p
                R[k] = v
                T[k] = t
                self.rank += 1
                return
            v ^= R[o]
            t ^= T[o]
        R[k] = 0
        T[k] = t
        self.null_rows.append(k)

    def flip_entry(self, i: int, j: int) -> int:
        """Flip entry (i, j) of the source matrix; returns the new rank."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("entry out of range")
        return self.flip(1 << i, 1 << j)

    def delta_if_flip(self, rows: int, cols: int) -> int:
        """Rank change of M + u v^T for u = ``rows``, v = ``cols``
        (bitmasks over row and column indices); changes no state.

        u is in the column space iff every left-null row T[k] meets it an
        even number of times.  Reducing v against the pivots gives its
        residue and y, the XOR of the T rows used, with y^T M = v^T when v
        is in the row space.  The change is +1 when neither u nor v is in
        its space, -1 when both are and y.u = 1, and 0 otherwise.
        """
        if rows >> self.nrows or cols >> self.ncols:  # also catches negatives
            raise IndexError("update out of range")
        R, T = self.R, self.T
        owner = self.pivot_owner
        w, y = cols, 0
        while w:
            o = owner.get((w & -w).bit_length() - 1)
            if o is None:
                break
            w ^= R[o]
            y ^= T[o]
        if not w and not (y & rows).bit_count() & 1:
            return 0
        for k in self.null_rows:
            if (T[k] & rows).bit_count() & 1:
                return 1 if w else 0  # u is outside the column space
        return 0 if w else -1

    def flip(self, rows: int, cols: int) -> int:
        """Apply M += u v^T for u = ``rows``, v = ``cols``; returns the new
        rank.  One scan: R[k] ^= v wherever T[k] meets u oddly; each such
        row that lost or moved its pivot gives the pivot up and is
        re-eliminated."""
        if rows >> self.nrows or cols >> self.ncols:  # also catches negatives
            raise IndexError("update out of range")
        src = self.rows
        u = rows
        while u:
            src[(u & -u).bit_length() - 1] ^= cols
            u &= u - 1
        R, T, pivot_of = self.R, self.T, self.pivot_of
        one_row = not rows & (rows - 1)  # then T[k] meets u oddly iff at all
        requeue: list[int] = []
        for k in range(self.nrows):
            t = T[k] & rows
            if t and (one_row or t.bit_count() & 1):
                v = R[k] ^ cols
                R[k] = v
                p = pivot_of[k]
                if p < 0:
                    if v:  # a null row gains a value
                        self.null_rows.remove(k)
                        requeue.append(k)
                elif v == 0 or (v & -v).bit_length() - 1 != p:
                    del self.pivot_owner[p]
                    pivot_of[k] = -1
                    self.rank -= 1
                    if v:
                        requeue.append(k)
                    else:
                        self.null_rows.append(k)
        for k in requeue:
            self._insert(k)
        if self.paranoid:
            fresh = rank_of_rows(list(self.rows))
            if fresh != self.rank:
                raise AssertionError(
                    f"maintained rank {self.rank} != from-scratch rank {fresh}"
                )
        return self.rank

    def matrix(self) -> F2Matrix:
        return F2Matrix(self.nrows, self.ncols, tuple(self.rows))

    def left_nullspace_basis(self) -> list[int]:
        """Bitmask basis (over row indices) of {x : x^T M = 0}."""
        return [self.T[k] for k in range(self.nrows) if self.R[k] == 0]


def toggled_profile(nrows: int, ncols: int, toggles: Toggles, subset: EdgeSubset) -> RankProfile:
    """A ``RankProfile`` of the zero matrix with ``toggles`` of ``subset`` applied."""
    prof = RankProfile(zero_matrix(nrows, ncols))
    rest = subset
    while rest:
        for rows, cols in toggles[(rest & -rest).bit_length() - 1]:
            prof.flip(rows, cols)
        rest &= rest - 1
    return prof


def gray_ranks(nrows: int, ncols: int, toggles: Toggles) -> Iterator[tuple[EdgeSubset, int]]:
    """Yield (subset, rank) for every subset of the len(toggles) edges in
    Gray-code order, from the zero nrows x ncols matrix.

    Position t is the subset t ^ (t >> 1), so consecutive subsets differ in
    edge e = the lowest set bit of t, and each step applies the updates of
    ``toggles[e]`` to one maintained ``RankProfile``."""
    prof = RankProfile(zero_matrix(nrows, ncols))
    flip = prof.flip
    cur = 0
    yield cur, prof.rank
    for t in range(1, 1 << len(toggles)):
        e = (t & -t).bit_length() - 1
        cur ^= 1 << e
        for rows, cols in toggles[e]:
            r = flip(rows, cols)
        yield cur, r


def left_nullspace(m: F2Matrix) -> list[int]:
    """Basis of the left null space; size = rows - rank."""
    return RankProfile(m).left_nullspace_basis()


def sample_left_nullspace(m: F2Matrix, rng) -> int:
    """Uniform vector from the left null space (bitmask over row indices).

    ``rng`` needs a ``randbits(k)`` method.
    """
    basis = left_nullspace(m)
    v = 0
    if basis:
        picks = rng.randbits(len(basis))
        for idx, b in enumerate(basis):
            if (picks >> idx) & 1:
                v ^= b
    return v


def vector_matrix_product(vec: int, m: F2Matrix) -> int:
    """x^T M over the two-element field: XOR of rows selected by vec."""
    out = 0
    v = vec
    while v:
        k = (v & -v).bit_length() - 1
        out ^= m.data[k]
        v &= v - 1
    return out
