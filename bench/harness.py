"""Running jobs in process, and timing them at a reference machine speed.

Each job is one ``llab.cli.main`` call. The machine this was written on is
a shared 2-core box whose speed drifts by 20-45 % within minutes, for all
code alike, so every time is also reported scaled to a reference speed.
``ReferenceClock`` runs a fixed pure-Python kernel that does not use llab
(dict lookups, tuples, integer arithmetic) three times after each timed
call and, from a SIGALRM handler, every 0.2 s during it. A call's scaled
time is its measured time, less the time spent in the handler, times
``REFERENCE_S`` over the median kernel time in its window (the samples
just before, during and just after it). Over ten consecutive runs of each
workload, the quartiles of raw wall time lay 0.09-0.26 of the median apart
and those of scaled wall time 0.02-0.09.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from llab import cli

from workloads import job_argv, job_id

REFERENCE_S = 0.0045  # a typical kernel time on the machine named above
TICK_S = 0.2
EDGE_SAMPLES = 3
_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += _TABLE[(i * 31) & 1023]
        pair = (i, acc)
        acc ^= pair[0]
    return time.perf_counter() - start


class ReferenceClock:
    """Times calls in raw seconds and in seconds at the reference speed.

    Use as a context manager: the SIGALRM sampler runs only inside it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_kernel())
        self._handler_s += time.perf_counter() - start

    def _edge(self) -> None:
        self.samples += [_kernel() for _ in range(EDGE_SAMPLES)]

    def __enter__(self) -> "ReferenceClock":
        self._edge()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args, **kwargs):
        """Call fn; returns (its result, raw seconds, scaled seconds)."""
        first = len(self.samples) - EDGE_SAMPLES
        handler_s = self._handler_s
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - start - (self._handler_s - handler_s)
        self._edge()
        return out, raw, raw * REFERENCE_S / statistics.median(self.samples[first:])


class _Sink:
    """Swallows the jobs' text output; the reports go to --json files."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class JobResult:
    job: str
    code: int
    report: bytes | None
    seconds: float
    scaled: float  # seconds at the reference speed


def run_job(job: tuple[str, ...], paths: dict[str, str], out_dir: Path,
            clock: ReferenceClock) -> JobResult:
    name = job_id(job)
    out = out_dir / f"{name}.json"
    out.unlink(missing_ok=True)
    argv = job_argv(job, paths, out.as_posix())
    sink = _Sink()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code, seconds, scaled = clock.measure(cli.main, argv)
    report = out.read_bytes() if out.exists() else None
    return JobResult(name, code, report, seconds, scaled)


def run_pass(jobs, paths: dict[str, str], out_dir: Path, before_job=None) -> list[JobResult]:
    """Run every job once, in order; ``before_job(name)`` is called first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    with ReferenceClock() as clock:
        for job in jobs:
            if before_job is not None:
                before_job(job_id(job))
            results.append(run_job(job, paths, out_dir, clock))
    return results
