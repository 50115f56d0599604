"""Workload definitions: input groups, seeded relabeling and job lists.

A job is one ``llab`` command line (without ``--json``). Every input group
is written to disk after a seed-chosen relabeling of its points; seed 0 is
the identity, so seed-0 reports can be compared byte for byte with the
committed goldens.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BUILTIN_DATA = Path(__file__).resolve().parents[1] / "src" / "llab" / "data"
WORK_ROOT = Path(".bench_work")  # relative: reports name the input files

# the 15 (group, prime) pairs of the seven built-in groups
BUILTIN_PAIRS = (
    ("a4", 2), ("a4", 3), ("a5", 2), ("a5", 3), ("a5", 5),
    ("c6", 2), ("c6", 3), ("d8", 2), ("s3", 2), ("s3", 3),
    ("s4", 2), ("s4", 3), ("s5", 2), ("s5", 3), ("s5", 5),
)


def _cycle(degree: int, points) -> list[int]:
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return images


def generated_groups() -> dict[str, dict]:
    """Groups the benchmark builds itself, beyond the built-in data files."""
    return {
        "d16": {"degree": 8, "generators": [
            _cycle(8, list(range(8))),
            [(-i) % 8 for i in range(8)],
        ]},
        "c5xc5": {"degree": 10, "generators": [
            _cycle(10, [0, 1, 2, 3, 4]),
            _cycle(10, [5, 6, 7, 8, 9]),
        ]},
        "s6": {"degree": 6, "generators": [_cycle(6, list(range(6))), _cycle(6, [0, 1])]},
        "s7": {"degree": 7, "generators": [_cycle(7, list(range(7))), _cycle(7, [0, 1])]},
    }


GENERATED_PAIRS = (("d16", 2), ("c5xc5", 5), ("s6", 3), ("s6", 5), ("s7", 7))

# verify skips d8/2 and s4/2: same D8 Sylow shape as s5/2, about 40 s more
VERIFY_SKIP = {("d8", 2), ("s4", 2)}


def _pair_jobs(command: str, pairs) -> list[tuple[str, ...]]:
    return [(command, name, str(p)) for name, p in pairs]


WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    "catalog": [
        job
        for name, p in BUILTIN_PAIRS + GENERATED_PAIRS
        for job in (("classify", name, str(p)), ("locality", name, str(p)))
    ],
    "growth": _pair_jobs("expand", BUILTIN_PAIRS) + [
        ("expand", "s5", "2", "--delta", "c", "--axiom-len", "4"),
        ("locality", "s5", "2", "--delta", "q", "--axiom-len", "3"),
    ],
    "verify": _pair_jobs("verify", [pq for pq in BUILTIN_PAIRS if pq not in VERIFY_SKIP]),
}


def input_dir(workload: str) -> Path:
    """Where a run writes its group files; reports name them, so it is fixed."""
    return WORK_ROOT / workload / "inputs"


def job_id(job: tuple[str, ...]) -> str:
    """File-name-safe identifier, e.g. ``expand-s5-2-delta-c-axiom-len-4``."""
    return "-".join(arg.lstrip("-") for arg in job)


def job_groups(jobs) -> list[str]:
    return sorted({job[1] for job in jobs})


def relabeling(seed: int, name: str, degree: int) -> list[int]:
    """Seed-chosen permutation of the points; seed 0 is the identity."""
    points = list(range(degree))
    if seed:
        random.Random(f"{seed}:{name}").shuffle(points)
    return points


def relabel(group: dict, pi: list[int]) -> dict:
    """Conjugate every generator by pi: point i is renamed pi[i]."""
    gens = []
    for g in group["generators"]:
        images = [0] * len(g)
        for i, gi in enumerate(g):
            images[pi[i]] = pi[gi]
        gens.append(images)
    return {"degree": group["degree"], "generators": gens}


def source_group(name: str) -> dict:
    extra = generated_groups()
    if name in extra:
        return extra[name]
    return json.loads((BUILTIN_DATA / f"{name}.json").read_text())


def write_inputs(names, seed: int, out_dir: Path) -> dict[str, str]:
    """Write the relabeled group files; returns name -> path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        group = source_group(name)
        pi = relabeling(seed, name, group["degree"])
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(relabel(group, pi)) + "\n")
        paths[name] = path.as_posix()
    return paths


def job_argv(job: tuple[str, ...], paths: dict[str, str], report: str) -> list[str]:
    command, name, p, *extra = job
    return [command, "--group", paths[name], "--p", p, *extra, "--json", report]
