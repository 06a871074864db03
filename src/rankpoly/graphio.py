"""Graph file parsing and fraction round-tripping for the CLI.

Two input formats:

* edge list — one ``u v`` pair per line, whitespace-tolerant, ``#`` starts
  a comment.  If every token is a decimal integer (``str.isdecimal``) the
  tokens are used as vertex ids directly (n = max id + 1); otherwise
  tokens are named vertices, auto-numbered in order of first appearance.
* structured JSON — ``{"n": int, "edges": [[u, v], ...]}`` with optional
  ``"U"`` / ``"W"`` arrays that must partition 0..n-1.  Counts and ids are
  JSON integers only (no floats, strings or booleans).

Either format allows at most ``MAX_VERTICES`` vertices, checked before the
graph is built; any malformed file raises ``GraphFormatError``.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from pathlib import Path

from .graphs import BipartiteGraph, Graph, TreeDecomposition, bipartition_of


MAX_VERTICES = 1 << 20


class GraphFormatError(ValueError):
    pass


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise GraphFormatError(f"{n} vertices exceeds the limit of {MAX_VERTICES}")


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass; JSON true is no id
        raise GraphFormatError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_ids(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise GraphFormatError(f"{what} must be a list of vertex ids")
    return tuple(_json_int(v, f"{what} entry") for v in value)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed fraction {text!r}: {exc}") from None


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    # Decimal converts an int of any length, past the interpreter's limit
    # on int-to-string digits, and prints the same digits as str
    num = str(decimal.Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{decimal.Decimal(value.denominator)}"


def parse_edge_list(text: str) -> Graph:
    tokens: list[tuple[str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v' per line, got {raw!r}")
        tokens.append((parts[0], parts[1]))
    # isdecimal, not isdigit: int() refuses digits such as '²'
    all_ints = all(a.lstrip("-").isdecimal() and b.lstrip("-").isdecimal() for a, b in tokens)
    if all_ints and tokens:
        pairs = [(int(a), int(b)) for a, b in tokens]
        if any(u < 0 or v < 0 for u, v in pairs):
            raise GraphFormatError("negative vertex ids are not allowed")
        n = max(max(u, v) for u, v in pairs) + 1
        _check_vertex_count(n)
        return Graph(n, tuple(pairs))
    names: dict[str, int] = {}
    pairs = []
    for a, b in tokens:
        for t in (a, b):
            if t not in names:
                names[t] = len(names)
        pairs.append((names[a], names[b]))
    labels = tuple(sorted(names, key=names.get))  # type: ignore[arg-type]
    return Graph(len(names), tuple(pairs), labels or None)


def parse_structured(text: str) -> tuple[Graph, BipartiteGraph | None]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also overlong integers, deep nesting
        raise GraphFormatError(f"invalid JSON graph document: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise GraphFormatError("structured graph needs 'n' and 'edges' fields")
    n = _json_int(doc["n"], "'n'")
    _check_vertex_count(n)
    if not isinstance(doc["edges"], list):
        raise GraphFormatError("'edges' must be a list of [u, v] pairs")
    edges = []
    for edge in doc["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise GraphFormatError(f"an edge must be a [u, v] pair, got {json.dumps(edge)}")
        edges.append((_json_int(edge[0], "edge endpoint"), _json_int(edge[1], "edge endpoint")))
    sides = None
    if "U" in doc or "W" in doc:
        if not ("U" in doc and "W" in doc):
            raise GraphFormatError("give both 'U' and 'W' or neither")
        sides = (_json_ids(doc["U"], "'U'"), _json_ids(doc["W"], "'W'"))
    try:
        g = Graph(n, tuple(edges))
        return g, None if sides is None else BipartiteGraph(g, *sides)
    except ValueError as exc:  # negative n, self-loops, bad ids or sides
        raise GraphFormatError(str(exc)) from None


def load_graph(path: str | Path, fmt: str = "auto") -> tuple[Graph, BipartiteGraph | None]:
    """Read a graph file.  fmt is 'edgelist', 'json', or 'auto' (sniff)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read graph file {path}: {exc}") from None
    if fmt == "auto":
        fmt = "json" if text.lstrip().startswith("{") else "edgelist"
    if fmt == "json":
        return parse_structured(text)
    if fmt == "edgelist":
        return parse_edge_list(text), None
    raise GraphFormatError(f"unknown graph format {fmt!r}")


def require_bipartite(g: Graph, bip: BipartiteGraph | None) -> BipartiteGraph:
    if bip is not None:
        return bip
    return bipartition_of(g)


def load_tree_decomposition(path: str | Path) -> TreeDecomposition:
    """JSON: {"bags": [[v, ...], ...]} with optional "tree_edges": [[a, b], ...]."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read decomposition file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also overlong integers, deep nesting
        raise GraphFormatError(f"invalid JSON decomposition: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("bags"), list):
        raise GraphFormatError("a tree decomposition needs a 'bags' list of vertex id lists")
    bags = tuple(_json_ids(bag, "a bag") for bag in doc["bags"])
    tree_edges = doc.get("tree_edges", [])
    if not isinstance(tree_edges, list):
        raise GraphFormatError("'tree_edges' must be a list of [a, b] pairs")
    edges = []
    for edge in tree_edges:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise GraphFormatError(f"a tree edge must be an [a, b] pair, got {json.dumps(edge)}")
        edges.append((_json_int(edge[0], "tree edge end"), _json_int(edge[1], "tree edge end")))
    try:
        return TreeDecomposition(Graph(len(bags), tuple(edges)), bags)
    except ValueError as exc:  # self-loops, repeated or out-of-range tree edges
        raise GraphFormatError(str(exc)) from None


def parse_ordering(path: str | Path, m: int) -> list[int]:
    """Whitespace-separated edge ids giving the ordering positions."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise OSError(f"cannot read ordering file {path}: {exc}") from None
    try:
        perm = [int(t) for t in text.split()]
    except ValueError:  # also ids past the int-to-string digit limit
        raise GraphFormatError(f"ordering file {path} must hold edge ids only") from None
    if sorted(perm) != list(range(m)):
        raise GraphFormatError(f"ordering file {path} is not a permutation of the edge ids")
    return perm
