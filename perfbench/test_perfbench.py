"""Fast self-test of the benchmark: every workload at reduced size, with all
checks on, plus one traced run.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_small(workload):
    doc = run(workload, 0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_traced_run_reports_every_layer():
    doc = run("sample", 1)
    assert doc["correct"] and doc["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want


def test_gauge_scales_by_the_reference(monkeypatch):
    """A reference call that takes twice its nominal time halves the scale."""
    monkeypatch.setitem(hostspeed.REFERENCES, "sleep", (lambda: time.sleep(0.002), 0.001))
    gauge = hostspeed.Gauge(["sleep"])
    timed = gauge.time_round([(lambda: "out", "sleep"), (lambda: time.sleep(0.01), "sleep")])
    assert [out for out, _, _ in timed] == ["out", None]
    assert timed[1][1] >= 0.01 and gauge.measured == [dt for _, dt, _ in timed]
    assert all(0.3 < scale <= 0.5 for _, _, scale in timed)
    assert len(gauge.samples["sleep"]) == 3


def test_refuses_without_sources():
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    root = HERE / "_work" / "no-sources"
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    try:
        cmd = [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1",
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
