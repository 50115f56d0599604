"""The llab benchmark: one workload, checked against golden answers.

    python3 bench/run.py --workload catalog --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout; it imports llab from ``src/``.
Every job is an in-process ``llab.cli.main([...])`` call with ``--json``,
one after another in this one process (a closed loop). The seed relabels the
points of every input group; seed 0 keeps them as written.

``--trace 0`` times untraced passes over the job list until ``--seconds``
have gone by (at least one pass) and reports the end-to-end metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one, writing its spans to
``.bench_work/<workload>/trace-seed<seed>.json``. The last line of stdout
is always the JSON result; scratch files stay under ``.bench_work/``.

Timings are seconds scaled to a reference machine speed (see harness.py),
because this shared machine's speed drifts; the lines before the result
also give the raw medians.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_ROUNDS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="write the inputs and exit (one timed set-up round)")
    return parser.parse_args(argv)


def setup_only(workload: str, seed: int) -> int:
    """One set-up round: import llab, then generate, relabel and write the inputs."""
    import llab.cli  # noqa: F401  (the import is part of set-up)
    from workloads import WORK_ROOT, WORKLOADS, job_groups, write_inputs

    write_inputs(job_groups(WORKLOADS[workload]), seed,
                 WORK_ROOT / workload / "setup")
    return 0


def time_setup_rounds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh interpreters doing the set-up, start to exit."""
    from harness import ReferenceClock

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    raw, scaled = [], []
    with ReferenceClock() as clock:
        for _ in range(SETUP_ROUNDS):
            # no timeout: with one, the wait polls and rounds the time up
            _, seconds, at_reference = clock.measure(subprocess.run, argv, check=True)
            raw.append(seconds)
            scaled.append(at_reference)
    return raw, scaled


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Checker:
    """Compares every job outcome with the goldens and tallies failures."""

    def __init__(self, goldens, seed: int):
        self.goldens = goldens
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, results) -> None:
        for r in results:
            self.attempted += 1
            bad = self.goldens.check(r.job, self.seed, r.code, r.report)
            if bad:
                self.failed += 1
                self.problems += bad


def negative_control(goldens) -> bool:
    """True when a golden with one altered byte reads as a mismatch."""
    from goldens import mismatches

    job, entry = next((j, e) for j, e in goldens.index["jobs"].items()
                      if goldens.report(j) is not None)
    golden = goldens.report(job)
    altered = golden[:-2] + bytes([golden[-2] ^ 1]) + golden[-1:]
    return bool(mismatches(entry, altered, entry["code"], golden))


def measure(args) -> dict:
    from goldens import Goldens
    from harness import run_pass
    from tracer import Tracer, installed_wrappers
    from workloads import WORK_ROOT, WORKLOADS, input_dir, job_groups, write_inputs

    jobs = WORKLOADS[args.workload]
    work = WORK_ROOT / args.workload
    setup_raw, setup = ([], []) if args.trace else time_setup_rounds(args.workload, args.seed)
    paths = write_inputs(job_groups(jobs), args.seed, input_dir(args.workload))
    goldens = Goldens(args.workload)
    checker = Checker(goldens, args.seed)
    control_ok = negative_control(goldens)

    raw_walls, walls, slowest, passes = [], [], [], []
    started = time.perf_counter()
    while not walls or (not args.trace and time.perf_counter() - started < args.seconds):
        results = run_pass(jobs, paths, work / "out")
        raw_walls.append(sum(r.seconds for r in results))
        walls.append(sum(r.scaled for r in results))
        slowest.append(max(r.scaled for r in results))
        checker.check(results)
        passes.append(results)

    extra_ok = True
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(jobs, paths, work / "traced", before_job=tracer.start_job)
        finally:
            tracer.uninstall()
        checker.check(traced)
        leftover = installed_wrappers()
        same = [a.report == b.report and a.code == b.code
                for a, b in zip(passes[0], traced)]
        extra_ok = not leftover and all(same)
        if leftover:
            checker.problems.append(f"wrappers left installed: {leftover}")
        if not all(same):
            checker.problems.append("traced reports differ from untraced ones")
        tracer.write(work / f"trace-seed{args.seed}.json")
        if tracer.missing:
            print(f"tracer: targets not found, reported as 0: {tracer.missing}")
        metrics = tracer.metrics(
            overhead_ratio=sum(r.scaled for r in traced) / walls[0])
    else:
        samples = {"wall_s": walls, "slowest_job_s": slowest, "setup_s": setup,
                   "raw wall_s": raw_walls, "raw setup_s": setup_raw}
        q = {name: quartiles(values) for name, values in samples.items()}
        for name, (q1, med, q3) in q.items():
            print(f"{name}: median {med:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
                  f"{len(samples[name])} samples")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": q["wall_s"][1], "unit": "s"},
            "slowest_job_s": {"value": q["slowest_job_s"][1], "unit": "s"},
            "setup_s": {"value": q["setup_s"][1], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    for problem in checker.problems:
        print(f"mismatch: {problem}")
    if not control_ok:
        print("negative control failed: an altered golden was accepted")
    return {
        "correct": checker.failed == 0 and control_ok and extra_ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "llab" / "cli.py").is_file():
        print("error: no llab source tree (src/llab) next to the benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
