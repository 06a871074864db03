"""Run one rankpoly benchmark workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload exact|sample|mixlab --seed N \\
        --seconds S --trace 0|1 [--size full|small]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The workload runs whole rounds of its fixed job list, one job at
a time, for about S seconds of job time (whole rounds, at least one), and
checks every output.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (see README.md).
Their times are seconds at the reference speed of ``hostspeed``: every job
and every set-up probe is timed between two samples of a fixed reference
loop, and the measured figures go to stderr.
With ``--trace 1`` they are the per-layer ones: rounds alternate between
untraced and traced, spans are written to ``perfbench/_out/``, and the
layers this workload does not call are measured on one small round of each
other workload.  ``--size small`` shrinks every input (the fast self-test).
"""

from __future__ import annotations

import os

# One thread for numeric libraries; must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("exact", "sample", "mixlab")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True


def run_round(jobs, tally: Tally, gauge, tracing=None) -> tuple[list[float], list[dict] | None]:
    """Run every job once, in order, then check every output.  Returns the
    per-job times in seconds at the reference speed of the
    ``hostspeed.Gauge`` (which keeps the measured ones) and, with the
    ``tracing`` module given, the spans recorded while the package was
    instrumented for the jobs."""
    tracer = restore = None
    if tracing is not None:
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)

    def call(job):
        try:
            return True, job.run()
        except Exception:  # a job that raises is a failed operation; keep going
            return False, traceback.format_exc()

    try:
        timed = gauge.time_round([(lambda job=job: call(job), job.reference) for job in jobs])
    finally:
        if restore is not None:
            restore()
    for job, ((ok, out), _, _) in zip(jobs, timed):
        tally.attempted += 1
        if not ok:
            tally.failed += 1
            print(f"job {job.name} raised:\n{out}", file=sys.stderr)
            continue
        problem = job.check(out)
        if problem is not None:
            tally.correct = False
            print(f"job {job.name}: check failed: {problem}", file=sys.stderr)
    return [dt * scale for _, dt, scale in timed], (tracer.spans if tracer is not None else None)


def probe_setup(workload: str, seed: int, size: str, workdir: Path) -> tuple[float, float]:
    """(measured set-up seconds, import seconds) of one fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size, str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready, json.loads(line)["import_s"]


def setups(args, workdir: Path) -> tuple[list[float], list[float], list[float]]:
    """Set-up seconds at the reference speed, measured set-up seconds and
    import seconds of ``SETUP_PROBES`` fresh interpreters, each probe timed
    between two reference samples."""
    gauge = hostspeed.Gauge(["python"])  # interpreter start and imports
    probes = gauge.time_round([
        (lambda k=k: probe_setup(args.workload, args.seed, args.size, workdir / f"probe{k}"), "python")
        for k in range(SETUP_PROBES)
    ])
    return ([ready * scale for (ready, _), _, scale in probes], [ready for (ready, _), _, _ in probes],
            [import_s for (_, import_s), _, _ in probes])


def measure(jobs, seconds: float, tally: Tally, gauge) -> list[list[float]]:
    """Whole rounds, at least one, while the next round is expected to end
    within ``seconds`` of measured job time."""
    rounds: list[list[float]] = []
    while True:
        rounds.append(run_round(jobs, tally, gauge)[0])
        spent = sum(gauge.measured)
        if spent * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end(rounds: list[list[float]], setup_s: list[float]) -> dict:
    """Each job's time, at the reference speed, is its median over the
    rounds, which drops the slowdowns a shared machine puts on single jobs;
    wall_s is the job list at those times."""
    per_job = [statistics.median(ts) for ts in zip(*rounds)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": sum(per_job), "unit": "s"},
        "job_p50_s": {"value": statistics.median(per_job), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def report_measured(rounds: list[list[float]], gauge, setup_measured: list[float]) -> None:
    """The measured figures behind the end-to-end ones, on stderr."""
    n = len(rounds[0])
    per_job = [statistics.median(gauge.measured[j::n]) for j in range(n)]
    refs = ", ".join(f"{name} {statistics.median(gauge.samples[name]) * 1e3:.3f} ms (nominal {nominal_s * 1e3:.3f})"
                     for name, (_, nominal_s) in gauge.references.items())
    print(f"measured: wall_s {sum(per_job):.4f} job_p50_s {statistics.median(per_job):.4f} "
          f"setup_s {statistics.median(setup_measured):.4f}; median reference call: {refs}; {len(rounds)} rounds",
          file=sys.stderr)


def traced(args, jobs, inp, workdir: Path, imports: list[float], tally: Tally) -> dict:
    import inputs
    import tracing
    import workloads

    gauge = hostspeed.Gauge(job.reference for job in jobs)
    plain, traced_rounds = [], []
    while True:
        plain.append(run_round(jobs, tally, gauge)[0])
        traced_rounds.append(run_round(jobs, tally, gauge, tracing))
        if sum(gauge.measured) * (len(plain) + 1) / len(plain) > args.seconds:
            break
    own = tracing.median_metrics([tracing.span_metrics(spans) for _, spans in traced_rounds])
    metrics = dict(own)
    spans_out = {args.workload: traced_rounds[-1][1]}

    all_inputs = {args.workload: inp}
    for other in WORKLOADS:
        if other == args.workload:
            continue
        small = inputs.make_inputs(other, args.seed, "small", workdir / f"{other}-small")
        other_jobs = workloads.JOBS[other](small)
        _, spans = run_round(other_jobs, tally, hostspeed.Gauge(job.reference for job in other_jobs), tracing)
        spans_out[f"{other}-small"] = spans
        for key, value in tracing.span_metrics(spans).items():
            metrics.setdefault(key, value)
        all_inputs[other] = inputs.make_inputs(other, args.seed, args.size, workdir / f"{other}-replay")

    metrics.update(tracing.replay_metrics(all_inputs["exact"], all_inputs["sample"], all_inputs["mixlab"],
                                          args.seed))
    metrics["setup.import_s"] = statistics.median(imports)
    wall_plain = statistics.median(map(sum, plain))
    wall_traced = statistics.median(sum(t) for t, _ in traced_rounds)
    metrics["trace.overhead_share"] = wall_traced / wall_plain - 1

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps({"spans": spans_out, "own_metrics": own, "metrics": metrics}, indent=1))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.METRICS.items()}


def pin_to_one_cpu() -> None:
    """Keep this process and the set-up probes on one CPU, so that each job
    and the reference samples around it run at that CPU's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)
    if not (SRC / "rankpoly" / "__init__.py").is_file():
        print(f"error: rankpoly sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    pin_to_one_cpu()
    workdir = HERE / "_work" / str(os.getpid())
    try:
        setup_s, setup_measured, imports = setups(args, workdir)
        import inputs
        import workloads

        inp = inputs.make_inputs(args.workload, args.seed, args.size, workdir / "main")
        jobs = workloads.JOBS[args.workload](inp)
        tally = Tally()
        if args.trace:
            metrics = traced(args, jobs, inp, workdir, imports, tally)
        else:
            gauge = hostspeed.Gauge(job.reference for job in jobs)
            rounds = measure(jobs, args.seconds, tally, gauge)
            metrics = end_to_end(rounds, setup_s)
            report_measured(rounds, gauge, setup_measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
