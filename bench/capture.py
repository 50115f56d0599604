"""Regenerate the golden answers of one or more workloads.

    python3 bench/capture.py catalog growth verify

Run this only on a commit whose answers are trusted. It stores the seed-0
exit code and ``--json`` report of every job, runs seeds 1-9 as well, and keeps
in each job's summary only the fields that agreed across all ten seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from goldens import GOLDEN_DIR, summarize  # noqa: E402
from harness import run_pass  # noqa: E402
from workloads import WORK_ROOT, WORKLOADS, input_dir, job_groups, write_inputs  # noqa: E402

SEEDS = 10


def capture(workload: str) -> None:
    jobs = WORKLOADS[workload]
    per_seed = []
    for seed in range(SEEDS):
        paths = write_inputs(job_groups(jobs), seed, input_dir(workload))
        results = run_pass(jobs, paths, WORK_ROOT / workload / "capture")
        per_seed.append(results)
        print(f"{workload} seed {seed}: {sum(r.seconds for r in results):.1f} s",
              file=sys.stderr, flush=True)

    out_dir = GOLDEN_DIR / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    index = {"seeds_compared": SEEDS, "jobs": {}}
    for i, first in enumerate(per_seed[0]):
        if first.report is not None:
            (out_dir / f"{first.job}.json").write_bytes(first.report)
        summaries = [summarize(run[i].code, run[i].report) for run in per_seed]
        stable = {
            field: value for field, value in summaries[0].items()
            if all(s.get(field) == value for s in summaries[1:])
        }
        index["jobs"][first.job] = {
            "code": first.code,
            "summary": stable,
            "unstable_fields": sorted(set(summaries[0]) - set(stable)),
        }
    (GOLDEN_DIR / f"{workload}.json").write_text(
        json.dumps(index, indent=1, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    for workload in args.workloads:
        capture(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
