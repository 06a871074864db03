"""Byte-for-byte golden outputs of seeded ``rankpoly sample`` runs and of
``rankpoly mix`` (TV curve CSV plus the JSON summary).

The ``sample`` files in ``tests/golden/`` were written by the chain
implementation that predates the shared GF(2) flip path, and the ``mix``
files by the mixing time that stepped every start separately; any change to
the random stream, the acceptance law, the cached statistic, the transition
operator or tau shows up here.  Running this file as a script rewrites them
from the current code.
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


@pytest.mark.parametrize("name,graph,argv", CASES, ids=[c[0] for c in CASES])
def test_sample_stdout_matches_golden(name, graph, argv):
    assert sample_output(graph, argv) == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name,graph,argv", MIX_CASES, ids=[c[0] for c in MIX_CASES])
def test_mix_stdout_matches_golden(name, graph, argv):
    assert mix_output(graph, argv) == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    for name, graph, argv in CASES:
        (GOLDEN / f"{name}.out").write_text(sample_output(graph, argv))
        print(name, file=sys.stderr)
    for name, graph, argv in MIX_CASES:
        (GOLDEN / f"{name}.out").write_text(mix_output(graph, argv))
        print(name, file=sys.stderr)
