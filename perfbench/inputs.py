"""Seeded inputs for the benchmark workloads.

Everything a workload hands to rankpoly is generated here from the workload
seed: graphs, parameter values, and the graph files that the in-process CLI
jobs read.  Structural sizes (edge counts, side sizes, step counts) are fixed
per workload and size, so the cost of a job does not depend on the seed; the
seed chooses which edges are drawn and which parameter values are used.

The package receives only the generated objects and files.  The generators
below are the benchmark's own and use ``random.Random(seed)``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from rankpoly import graphs

# Edge counts and step counts per size.  "full" is what the benchmark runs;
# "small" is the fast self-test and the companion rounds of a traced run.
SIZES = {
    "full": {
        "exact_bip": ((6, 6, 16), (6, 6, 17), (6, 6, 18)),
        "exact_forest": (15, 16),
        "exact_gen": ((9, 14), (10, 15), (10, 16)),
        "exact_tree_n": 16,
        "exact_cycle_n": 14,
        "exact_bis": ((6, 5, 16), (5, 7, 16)),
        "sample_m": (20, 30, 40, 50, 60),
        "sample_steps": 12000,
        "sample_thin": 600,
        "sample_cli_steps": 6000,
        "sample_small_steps": 16000,
        "mix_tau_m": 10,
        "mix_trio_m": 13,
        "mix_cycle_n": 13,
        "mix_big_tree_n": 3000,
    },
    "small": {
        "exact_bip": ((4, 4, 8), (4, 4, 9), (4, 4, 10)),
        "exact_forest": (8, 9),
        "exact_gen": ((6, 8), (6, 9), (7, 10)),
        "exact_tree_n": 9,
        "exact_cycle_n": 8,
        "exact_bis": ((4, 4, 9), (4, 5, 10)),
        "sample_m": (12, 16, 20),
        "sample_steps": 600,
        "sample_thin": 60,
        "sample_cli_steps": 400,
        "sample_small_steps": 12000,
        "mix_tau_m": 6,
        "mix_trio_m": 8,
        "mix_cycle_n": 8,
        "mix_big_tree_n": 200,
    },
}

LAMBDAS = [Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5, 7)]
MUS = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 4), Fraction(4, 3)]
QS = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 2)]
TUTTE_POINTS = [
    (Fraction(2), Fraction(3)),
    (Fraction(3), Fraction(2)),
    (Fraction(-1), Fraction(2)),
    (Fraction(1, 2), Fraction(5, 2)),
]
ETAS = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(-1, 4)]


def random_bipartite(rng: random.Random, a: int, b: int, m: int) -> graphs.BipartiteGraph:
    """m distinct edges between U = 0..a-1 and W = a..a+b-1."""
    pairs = [(i, a + j) for i in range(a) for j in range(b)]
    g = graphs.Graph(a + b, tuple(rng.sample(pairs, m)))
    return graphs.BipartiteGraph(g, tuple(range(a)), tuple(range(a, a + b)))


def random_tree(rng: random.Random, n: int) -> graphs.Graph:
    """Each vertex i > 0 joins a uniformly chosen earlier vertex."""
    return graphs.Graph(n, tuple((rng.randrange(i), i) for i in range(1, n)))


def random_forest(rng: random.Random, m: int, parts: int) -> graphs.Graph:
    """A forest with m edges and ``parts`` trees on m + parts vertices."""
    n = m + parts
    roots = set(rng.sample(range(1, n), parts - 1))
    edges = tuple((rng.randrange(i), i) for i in range(1, n) if i not in roots)
    return graphs.Graph(n, edges)


def random_connected(rng: random.Random, n: int, m: int) -> graphs.Graph:
    """A random spanning tree on n vertices plus m - n + 1 further edges."""
    tree = random_tree(rng, n)
    have = {tuple(sorted(e)) for e in tree.edges}
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in have]
    return graphs.Graph(n, tree.edges + tuple(rng.sample(rest, m - n + 1)))


def write_graph(path: Path, g: graphs.Graph | graphs.BipartiteGraph) -> str:
    """Write a structured JSON graph file; bipartite graphs keep their sides."""
    doc: dict = {}
    if isinstance(g, graphs.BipartiteGraph):
        doc["U"], doc["W"] = list(g.side_u), list(g.side_w)
        g = g.graph
    doc["n"] = g.n
    doc["edges"] = [list(e) for e in g.edges]
    path.write_text(json.dumps(doc))
    return str(path)


def _exact(rng: random.Random, z: dict, workdir: Path) -> dict:
    inp = {
        "bip": [random_bipartite(rng, a, b, m) for a, b, m in z["exact_bip"]],
        "forest": [random_forest(rng, m, 2) for m in z["exact_forest"]],
        "gen": [random_connected(rng, n, m) for n, m in z["exact_gen"]],
        "tree": random_tree(rng, z["exact_tree_n"]),
        "cycle": graphs.cycle_graph(z["exact_cycle_n"]),
        "bis": [random_bipartite(rng, a, b, m) for a, b, m in z["exact_bis"]],
        "kab": graphs.complete_bipartite(*rng.choice([(4, 7), (5, 6), (3, 10), (4, 8)])),
        "lam": rng.sample(LAMBDAS, 4),
        "mu": [rng.choice(MUS) for _ in range(4)],
        "q": rng.sample(QS, 2),
        "tutte_xy": rng.sample(TUTTE_POINTS, 2),
        "eta": rng.choice(ETAS),
        # Fixed instances of the reduction pipelines (see README: the inputs
        # these pipelines accept do not depend on the seed).
        "c3": graphs.cycle_graph(3),
        "k2": graphs.path_graph(2),
        "p3": graphs.path_graph(3),
    }
    inp["files"] = {
        "bip_last": write_graph(workdir / "bip_last.json", inp["bip"][-1]),
        "gen_last": write_graph(workdir / "gen_last.json", inp["gen"][-1]),
        "bis_last": write_graph(workdir / "bis_last.json", inp["bis"][-1]),
        "cycle": write_graph(workdir / "cycle.json", inp["cycle"]),
        "c3": write_graph(workdir / "c3.json", inp["c3"]),
    }
    return inp


def _sample(rng: random.Random, z: dict, workdir: Path) -> dict:
    big = []
    for m in z["sample_m"]:
        side = max(4, round((2.2 * m) ** 0.5))
        big.append(random_bipartite(rng, side, side, m))
    inp = {
        "big": big,
        "small_bip": random_bipartite(rng, 3, 4, 8),
        "small_gen": random_connected(rng, 6, 8),
        "tiny": graphs.bipartition_of(graphs.path_graph(4)),
        "seeds": [rng.randrange(1 << 62) for _ in range(2 * len(big) + 7)],
        "steps": z["sample_steps"],
        "thin": z["sample_thin"],
        "cli_steps": z["sample_cli_steps"],
        "small_steps": z["sample_small_steps"],
    }
    inp["files"] = {
        "rws": write_graph(workdir / "rws.json", big[len(big) // 2]),
        "rc": write_graph(workdir / "rc.json", big[len(big) // 2 - 1]),
    }
    return inp


def _mixlab(rng: random.Random, z: dict, workdir: Path) -> dict:
    m = z["mix_tau_m"]
    inp = {
        "star": graphs.star_graph(m),
        "tree": random_tree(rng, m + 1),
        "trio_tree": random_tree(rng, z["mix_trio_m"] + 1),
        "cycle": graphs.cycle_graph(z["mix_cycle_n"]),
        "big_tree": random_tree(rng, z["mix_big_tree_n"]),
        "cli_tree": random_tree(rng, z["mix_trio_m"] + 1),
    }
    inp["files"] = {
        "cli_tree": write_graph(workdir / "cli_tree.json", inp["cli_tree"]),
        "big_tree": write_graph(workdir / "big_tree.json", inp["big_tree"]),
    }
    return inp


GENERATORS = {"exact": _exact, "sample": _sample, "mixlab": _mixlab}


def make_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Generate the inputs of one workload and write its graph files."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, SIZES[size], workdir)
