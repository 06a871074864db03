"""Byte-for-byte golden outputs of seeded ``rankpoly sample`` runs, of
``rankpoly mix`` (TV curve CSV plus the JSON summary), of the exact
``eval``, ``count`` and ``reduce`` commands, of ``rankpoly lw`` and of
``rankpoly selftest --quick``.

The ``sample`` files in ``tests/golden/`` were written by the chain
implementation that predates the shared GF(2) flip path, the ``mix`` files
by the mixing time that stepped every start separately, and the exact files
by the tables that walked every edge subset; any change to the random
stream, the acceptance law, the cached statistic, the transition operator,
tau, a (statistic, size) table or a reduction certificate shows up here.
The ``selftest`` file was written by the component tables that walked the
incidence rank and shifted over the bridges, and the two ``sample`` files
whose acceptance denominators pass 2^64 by the step that read the rank
change before its acceptance draw.
Running this file as a script rewrites them from the current code.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from rankpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, argv after the graph file); lam=3, mu=2/7 makes every acceptance
# branch fire, lam=1/2, mu=1 is the #BIS point.
CASES = [
    ("rws_bip5x5_l3", "bip5x5.json", ["rws", "--lambda", "3", "--mu", "2/7", "--steps", "3000",
                                      "--seed", "11", "--burnin", "500", "--thin", "40"]),
    ("rws_bip5x5_half", "bip5x5.json", ["rws", "--lambda", "1/2", "--mu", "1", "--steps", "3000",
                                        "--seed", "12", "--thin", "37", "--initial", "full"]),
    ("rws_c8_l3", "c8.txt", ["rws", "--lambda", "3", "--mu", "2/7", "--steps", "3000",
                             "--seed", "13", "--burnin", "100", "--thin", "29", "--initial", "random"]),
    ("rws_c8_half", "c8.txt", ["rws", "--lambda", "1/2", "--mu", "1", "--steps", "2000",
                               "--seed", "14", "--thin", "50"]),
    ("rc_bip5x5_q3", "bip5x5.json", ["rc", "--q", "3", "--mu", "2/7", "--steps", "3000",
                                     "--seed", "21", "--burnin", "300", "--thin", "41", "--initial", "random"]),
    ("rc_bip5x5_half", "bip5x5.json", ["rc", "--lambda", "1/2", "--mu", "1", "--steps", "3000",
                                       "--seed", "22", "--thin", "43", "--initial", "full"]),
    ("rc_c7_q3", "c7.txt", ["rc", "--lambda", "3", "--mu", "2/7", "--steps", "3000",
                            "--seed", "23", "--burnin", "200", "--thin", "31", "--initial", "full"]),
    ("rc_c7_half", "c7.txt", ["rc", "--q", "1/2", "--mu", "1", "--steps", "2000",
                              "--seed", "24", "--thin", "47"]),
    # acceptance denominators past 2^64: a draw takes more than one word
    ("rws_c8_tiny_mu", "c8.txt", ["rws", "--lambda", "1/2", "--mu", "1/1180591620717411303425",
                                  "--steps", "3000", "--seed", "11", "--thin", "300", "--initial", "full"]),
    ("rc_c7_huge_mu", "c7.txt", ["rc", "--q", "3", "--mu", "1180591620717411303425/2",
                                 "--steps", "3000", "--seed", "12", "--burnin", "150", "--thin", "300"]),
]

# (name, graph, argv after the graph file) for ``rankpoly mix``; star6 and
# tree8 have twin leaves, C7 has none.
MIX_CASES = [
    ("mix_rws_star6_all", "star6.txt", ["--family", "rws", "--lambda", "3", "--mu", "2/7",
                                        "--starts", "all"]),
    ("mix_rws_star6_trio", "star6.txt", ["--family", "rws", "--lambda", "1/2", "--mu", "1",
                                         "--starts", "trio", "--eps", "0.1"]),
    ("mix_rws_tree8_all", "tree8.txt", ["--family", "rws", "--lambda", "1/2", "--mu", "1",
                                        "--starts", "all", "--eps", "0.1"]),
    ("mix_rws_tree8_trio", "tree8.txt", ["--family", "rws", "--lambda", "3", "--mu", "2/7",
                                         "--starts", "trio"]),
    ("mix_rc_c7_all", "c7.txt", ["--family", "rc", "--q", "3", "--mu", "2/7", "--starts", "all"]),
    ("mix_rc_c7_trio", "c7.txt", ["--family", "rc", "--q", "1/2", "--mu", "1", "--starts", "trio",
                                  "--eps", "0.1"]),
]

# (name, command words, graph, options) for the exact commands.  forest14
# is a forest with an isolated vertex; bridged13 has bridges between a
# triangle, a 4-cycle and a pendant path, an isolated vertex and a separate
# triangle; bipsplit is a bipartite graph with four components, given with
# its sides.  --max-edges 4 sends ``count pbis`` to the twin-class route.
EXACT_CASES = [
    ("eval_r2p_forest14", ["eval", "r2p"], "forest14.json", ["--lambda", "3", "--mu", "2/7"]),
    ("eval_r2p_bipsplit", ["eval", "r2p"], "bipsplit.json", ["--lambda", "1/2", "--mu=-2/3"]),
    ("eval_r2_bridged13", ["eval", "r2"], "bridged13.json", ["--lambda", "3", "--mu", "2/7"]),
    ("eval_r2_forest14", ["eval", "r2"], "forest14.json", ["--lambda=-2", "--mu", "5/3"]),
    ("eval_zrc_bridged13", ["eval", "zrc"], "bridged13.json", ["--q", "3", "--mu", "2/7"]),
    ("eval_zrc_forest14", ["eval", "zrc"], "forest14.json", ["--q", "1/2", "--mu=-4"]),
    ("eval_zrc_bipsplit", ["eval", "zrc"], "bipsplit.json", ["--q", "2", "--mu", "1"]),
    ("eval_tutte_bridged13", ["eval", "tutte"], "bridged13.json", ["--x", "2", "--y", "3"]),
    ("eval_tutte_forest14", ["eval", "tutte"], "forest14.json", ["--x=-3", "--y", "1/2"]),
    ("eval_tutte_bipsplit", ["eval", "tutte"], "bipsplit.json", ["--x", "1", "--y", "1"]),
    ("count_bis_forest14", ["count", "bis"], "forest14.json", []),
    ("count_bis_bipsplit", ["count", "bis"], "bipsplit.json", []),
    ("count_matchings_bridged13", ["count", "matchings"], "bridged13.json", []),
    ("count_matchings_forest14", ["count", "matchings"], "forest14.json", []),
    ("count_pm_bip5x5", ["count", "perfect-matchings"], "bip5x5.json", []),
    ("count_pm_c8", ["count", "perfect-matchings"], "c8.txt", []),
    ("count_pm_forest14", ["count", "perfect-matchings"], "forest14.json", []),
    ("count_pbis_bipsplit", ["count", "pbis"], "bipsplit.json", ["--eta", "1/3"]),
    ("count_pbis_bipsplit_twins", ["count", "pbis"], "bipsplit.json", ["--eta", "1/3", "--max-edges", "4"]),
    ("count_pbis_bipsplit_twins_m1", ["count", "pbis"], "bipsplit.json", ["--eta=-1", "--max-edges", "4"]),
    ("count_pbis_bip5x5_twins", ["count", "pbis"], "bip5x5.json", ["--eta", "3", "--max-edges", "4"]),
    ("count_pbis_bip5x5_twins_p1", ["count", "pbis"], "bip5x5.json", ["--eta", "1", "--max-edges", "4"]),
    ("reduce_tutte_k2", ["reduce", "tutte"], "k2.txt", ["--x=-3", "--y", "5"]),
    ("reduce_tutte_c3", ["reduce", "tutte"], "c3.txt", ["--x=-3", "--y", "2"]),
    ("reduce_bis_p3", ["reduce", "bis"], "p3.txt", ["--eta", "7/9"]),
]

# (name, graph, argv after the graph file) for ``rankpoly lw``; each
# *_td.json is a width-1 or width-2 tree decomposition of its graph, and
# C7 has no DFS ordering (it is not a forest).
LW_CASES = [
    (f"lw_{g}_{tag}", f"{g}.txt", argv)
    for g in ("tree8", "star6", "c7")
    for tag, argv in (
        ("natural", []),
        ("natural_verbose", ["--verbose"]),
        ("dfs_verbose", ["--ordering", "dfs", "--verbose"]),
        ("treedec_verbose", ["--treedec", str(GOLDEN / f"{g}_td.json"), "--verbose"]),
        ("optimal", ["--optimal"]),
    )
    if not (g == "c7" and tag.startswith("dfs"))
]


def cli_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue()


def sample_output(graph: str, argv: list[str]) -> str:
    return cli_output(["sample", argv[0], "--graph", str(GOLDEN / graph), *argv[1:]])


def mix_output(graph: str, argv: list[str]) -> str:
    return cli_output(["mix", "--graph", str(GOLDEN / graph), *argv])


def exact_output(words: list[str], graph: str, options: list[str]) -> str:
    return cli_output([*words, "--graph", str(GOLDEN / graph), *options])


def lw_output(graph: str, argv: list[str]) -> str:
    return cli_output(["lw", "--graph", str(GOLDEN / graph), *argv])


@pytest.mark.parametrize("name,graph,argv", CASES, ids=[c[0] for c in CASES])
def test_sample_stdout_matches_golden(name, graph, argv):
    assert sample_output(graph, argv) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name,graph,argv", MIX_CASES, ids=[c[0] for c in MIX_CASES])
def test_mix_stdout_matches_golden(name, graph, argv):
    assert mix_output(graph, argv) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name,words,graph,options", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def test_exact_stdout_matches_golden(name, words, graph, options):
    assert exact_output(words, graph, options) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name,graph,argv", LW_CASES, ids=[c[0] for c in LW_CASES])
def test_lw_stdout_matches_golden(name, graph, argv):
    assert lw_output(graph, argv) == (GOLDEN / f"{name}.out").read_text()


def test_selftest_quick_stdout_matches_golden():
    assert cli_output(["selftest", "--quick"]) == (GOLDEN / "selftest_quick.out").read_text()


if __name__ == "__main__":
    for name, graph, argv in CASES:
        (GOLDEN / f"{name}.out").write_text(sample_output(graph, argv))
        print(name, file=sys.stderr)
    for name, graph, argv in MIX_CASES:
        (GOLDEN / f"{name}.out").write_text(mix_output(graph, argv))
        print(name, file=sys.stderr)
    for name, words, graph, options in EXACT_CASES:
        (GOLDEN / f"{name}.out").write_text(exact_output(words, graph, options))
        print(name, file=sys.stderr)
    for name, graph, argv in LW_CASES:
        (GOLDEN / f"{name}.out").write_text(lw_output(graph, argv))
        print(name, file=sys.stderr)
    (GOLDEN / "selftest_quick.out").write_text(cli_output(["selftest", "--quick"]))
