"""Host speed gauge: a fixed reference loop, timed around every job.

A shared host runs the same pure-Python code at between 1.0x and 1.9x of its
best time.  The speed flips between a fast and a slow state every few tens of
milliseconds, and the share of time spent in the slow state drifts over
seconds to minutes, independently on each vCPU.  A phase that covers a whole
30 s run moves every statistic taken inside the run, medians and minima
alike.

So the benchmark times a fixed piece of reference work right before and right
after each job, on the same CPU.  The reference work never calls rankpoly and
never changes, so it measures the host and not the program.  A job's reported
time is its measured time scaled by the reference's nominal time over its
mean time around the job: seconds at the reference speed.  A change to the
program moves the job's time and not the reference, so it moves the reported
time by the same share.

The host does not slow all code alike, so there are two references, and
each job names the one it is timed against.  ``python`` is a pure-Python
loop, which follows the pure-Python jobs; ``numpy`` is a dense matrix-vector
loop, which follows the ``mixlab`` tau-over-all-starts jobs, whose time goes
largely to numpy and scipy operator steps, where the Python loop does not.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Callable, Iterable

# A sample of a reference lasts at least MIN_SAMPLE_S, and about SHARE of the
# longer of the two jobs next to it, so that a long job's speed is not judged
# from a few milliseconds.
MIN_SAMPLE_S = 0.02
SHARE = 0.05


def python_work() -> int:
    """A fixed mix of what the program does in pure Python: Fraction sums,
    bit operations on integer rows, and dict and list updates."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 7)
    rows = [0x5A5A5A5A ^ i for i in range(32)]
    bits = 0
    for k in range(3000):
        r = rows[k & 31]
        rows[(k * 7) & 31] = r ^ (r << 1 & 0xFFFFFFFF)
        bits += bin(r).count("1")
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return bits + s.denominator % 7 + len(counts)


_matrix: list = []


def numpy_work() -> float:
    """Six products of a fixed 512 x 1024 float64 matrix (4 MiB) with a
    vector.  numpy is imported on first use only."""
    if not _matrix:
        import numpy as np

        _matrix.extend([np.random.default_rng(1).random((512, 1024)), np.ones(1024)])
    m, v = _matrix
    return sum(float((m @ v).sum()) for _ in range(6))


# Each reference's work, and the time one call takes at the reference speed:
# about its median on a 2.0 GHz Xeon vCPU of a shared host, so that reported
# times read close to measured ones.
REFERENCES: dict[str, tuple[Callable[[], Any], float]] = {
    "python": (python_work, 0.0036),
    "numpy": (numpy_work, 0.00145),
}


class Gauge:
    """Samples of the references taken between calls, and the calls'
    measured times."""

    def __init__(self, references: Iterable[str]) -> None:
        self.references = {name: REFERENCES[name] for name in sorted(set(references))}
        self.samples: dict[str, list[float]] = {name: [] for name in self.references}  # seconds per call
        self.measured: list[float] = []  # measured seconds of every call timed
        self._expected: list[float] = []  # each call's measured seconds last round

    def sample(self, job_s: float) -> dict[str, tuple[float, int]]:
        """(seconds, calls) of each reference: one untimed call, which brings
        the reference back into the caches a job may have filled, then timed
        calls for at least MIN_SAMPLE_S and about SHARE of ``job_s``."""
        out = {}
        for name, (work, nominal_s) in self.references.items():
            calls = max(round(MIN_SAMPLE_S / nominal_s), round(SHARE * job_s / nominal_s))
            work()
            t0 = time.perf_counter()
            for _ in range(calls):
                work()
            seconds = time.perf_counter() - t0
            self.samples[name].append(seconds / calls)
            out[name] = (seconds, calls)
        return out

    def time_round(self, calls: list[tuple[Callable[[], Any], str]]) -> list[tuple[Any, float, float]]:
        """Call each function of ``calls`` in turn, with reference samples
        before the first and after each.  Returns each call's output, its
        measured seconds, and its scale: the nominal time of the call's
        reference over that reference's mean call time in the samples just
        before and just after it.  Measured seconds times the scale are
        seconds at the reference speed.  Sample lengths follow the calls'
        measured times in the previous round of as many calls."""
        expected = self._expected if len(self._expected) == len(calls) else [0.0] * len(calls)
        before = self.sample(expected[0])
        results, measured = [], []
        for j, (fn, reference) in enumerate(calls):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
            after = self.sample(max(dt, expected[j + 1] if j + 1 < len(calls) else 0.0))
            (s0, c0), (s1, c1) = before[reference], after[reference]
            results.append((out, dt, self.references[reference][1] * (c0 + c1) / (s0 + s1)))
            measured.append(dt)
            before = after
        self._expected = measured
        self.measured.extend(measured)
        return results
