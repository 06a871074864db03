"""Set up one workload in a fresh interpreter and report when it is ready.

Run by run.py to measure set-up time: import rankpoly, generate the
workload's inputs from the seed and write its graph files.  Prints one JSON
line, {"import_s": ...}, when the first job could start.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE WORKDIR
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rankpoly  # noqa: E402,F401

import_s = time.perf_counter() - t0

import inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, size, workdir = sys.argv[1:5]
    inputs.make_inputs(workload, int(seed), size, Path(workdir))
    print(json.dumps({"import_s": import_s}), flush=True)
