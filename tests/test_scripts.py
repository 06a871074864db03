"""The experiment scripts run end to end, each in its own interpreter, at
tiny settings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_congruence_demo_matches_through_the_row_space_dp():
    # count the DP's calls from inside the script's interpreter
    probe = (
        "import runpy, sys\n"
        "from rankpoly import exact\n"
        "calls = []\n"
        "original = exact._row_space_table\n"
        "exact._row_space_table = lambda *a: calls.append(1) or original(*a)\n"
        f"sys.argv = [{str(SCRIPTS / 'congruence_demo.py')!r}]\n"
        "try:\n"
        "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
        "finally:\n"
        "    print('row-space DP calls:', len(calls), file=sys.stderr)\n"
    )
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert "MATCH" in done.stdout and "MISMATCH" not in done.stdout
    calls = int(done.stderr.rsplit("row-space DP calls:", 1)[1])
    assert calls >= 1


def test_mixing_experiment_walks_the_subsets_once_per_tree():
    # tau and congestion share one ExactChain, so one rank table per tree
    probe = (
        "import runpy, sys\n"
        "from rankpoly import mixing\n"
        "calls = []\n"
        "original = mixing._rank_table\n"
        "mixing._rank_table = lambda *a: calls.append(1) or original(*a)\n"
        f"sys.argv = [{str(SCRIPTS / 'mixing_experiment.py')!r}, '--sizes', '4', '5', '--trials', '2']\n"
        "try:\n"
        "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
        "finally:\n"
        "    print('rank tables:', len(calls), file=sys.stderr)\n"
    )
    done = run_python("-c", probe)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 1 + 4  # header and one row per tree
    assert int(done.stderr.rsplit("rank tables:", 1)[1]) == 4


@pytest.mark.parametrize("script, args", [
    ("mixing_experiment.py", ("--sizes", "4", "--trials", "1")),
    ("sample_independent_sets.py", ("--steps", "2000", "--burnin", "100")),
])
def test_script_runs(script, args):
    done = run_python(str(SCRIPTS / script), *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_docstring_examples_name_files_in_the_repo(script):
    import ast
    import re

    doc = ast.get_docstring(ast.parse((SCRIPTS / script).read_text())) or ""
    for path in re.findall(r"--graph\s+(\S+)", doc):
        assert (ROOT / path).is_file(), path
