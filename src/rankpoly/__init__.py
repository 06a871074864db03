"""Exact evaluation and single-bond-flip sampling of rank-weighted and
random-cluster subgraph models, with mixing and modular-reduction labs."""

from .graphs import (
    BipartiteGraph,
    EdgeSubset,
    Graph,
    LimitExceededError,
    TreeDecomposition,
    bipartition_of,
    cloud_blowup,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    fan_gadget,
    biclique_gadget,
    max_matching,
    path_graph,
    star_graph,
    stretch_sum,
    two_stretch,
)
from .gf2 import (
    F2Matrix,
    RankProfile,
    adjacency,
    bipartite_adjacency,
    left_nullspace,
    rank,
    sample_left_nullspace,
)
from .exact import (
    EvalResult,
    count_bis,
    count_bis_oracle,
    count_independent_sets,
    count_matchings,
    count_pbis,
    count_pbis_oracle,
    count_perfect_matchings,
    purity_split_sums,
    r2,
    r2_prime,
    r2_prime_via_purity,
    random_cluster,
    tutte,
)
from .chains import RC, RWS, ChainParams, ChainState, bis_sample_bridge, run
from .reductions import (
    ModP,
    ReductionCert,
    bis_via_pbis_oracle,
    crt_reconstruct,
    find_gadget_params,
    find_pbis_params,
    rational_mod_p,
    tutte_via_oracle,
    verify_reduction_congruence,
)
from .rng import SplitMix64

__version__ = "0.1.0"

# rankpoly.mixing needs numpy and scipy; its names load it on first access.
_MIXING_NAMES = frozenset(
    {
        "CongestionResult",
        "EdgeOrdering",
        "ExactChain",
        "canonical_path",
        "congestion",
        "dfs_tree_ordering",
        "linear_width_of_ordering",
        "optimal_linear_width",
        "treedec_ordering",
    }
)


def __getattr__(name: str):
    if name in _MIXING_NAMES:
        from . import mixing

        return getattr(mixing, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
