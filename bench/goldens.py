"""Golden answers: seed-0 report bytes and relabeling-invariant summaries.

Seed 0 feeds the program the groups exactly as written, so its reports must
match the committed ones byte for byte. Any other seed relabels the points,
which changes generator listings but not the structure; those runs are
compared through ``summarize``, restricted to the summary fields that
``capture.py`` saw agree across seeds 0-9.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

_FLAGS = ("centric", "radical", "quasicentric", "subcentric",
          "fully_normalized", "fully_centralized")


def summarize(code: int, report: bytes | None) -> dict:
    """Flat field -> value summary of one job that a relabeling cannot change."""
    out: dict = {"exit_code": code}
    if report is None:
        return out
    rep = json.loads(report)
    out["group.order"] = rep["group"]["order"]
    out["group.degree"] = rep["group"]["degree"]
    out["p"] = rep["p"]
    command = rep["command"]
    if command == "classify":
        out["sylow_order"] = rep["sylow_order"]
        out["subgroups.flags"] = sorted(
            [s["order"], *(s[f] for f in _FLAGS)] for s in rep["subgroups"]
        )
        for fam, subs in sorted(rep["families"].items()):
            out[f"families.{fam}.orders"] = sorted(s["order"] for s in subs)
    elif command == "locality":
        out["delta"] = rep["delta"]
        out["elements"] = rep["elements"]
        out["objects.orders"] = sorted(s["order"] for s in rep["objects"])
        out["proper"] = rep["proper"]
        out["theta"] = rep["theta"]
        if "axioms" in rep:
            out["axioms"] = rep["axioms"]
    elif command == "expand":
        for key in ("delta", "delta_plus", "elements_before", "elements_after",
                    "new_elements", "objects_before", "objects_after",
                    "oracle_elements", "iso_to_oracle"):
            out[key] = rep[key]
        for i, step in enumerate(rep["steps"], 1):
            out[f"steps.{i}"] = step
        out["steps.count"] = len(rep["steps"])
        if "axioms" in rep:
            out["axioms"] = rep["axioms"]
    elif command == "verify":
        out["ok"] = rep["ok"]
        for tag, res in rep["tags"].items():
            out[f"tags.{tag}.ok"] = res["ok"]
            out[f"tags.{tag}.detail"] = res["detail"]
    else:
        raise ValueError(f"unknown report command {command!r}")
    return out


class Goldens:
    """The committed answers of one workload."""

    def __init__(self, workload: str, root: Path = GOLDEN_DIR):
        self.dir = root / workload
        self.index = json.loads((root / f"{workload}.json").read_text())

    def report(self, job_id: str) -> bytes | None:
        path = self.dir / f"{job_id}.json"
        return path.read_bytes() if path.exists() else None

    def check(self, job_id: str, seed: int, code: int, report: bytes | None) -> list[str]:
        """Mismatches of one job's outcome against the golden; empty when it agrees."""
        entry = self.index["jobs"].get(job_id)
        if entry is None:
            return [f"{job_id}: no golden"]
        if seed == 0:
            return mismatches(entry, self.report(job_id), code, report)
        got = summarize(code, report)
        return [
            f"{job_id}: {field} is {got.get(field)!r}, golden {want!r}"
            for field, want in entry["summary"].items()
            if got.get(field) != want
        ]


def mismatches(entry: dict, golden: bytes | None, code: int, report: bytes | None) -> list[str]:
    """Byte comparison of a seed-0 outcome with its golden."""
    out = []
    if code != entry["code"]:
        out.append(f"exit code {code}, golden {entry['code']}")
    if report != golden:
        out.append("report bytes differ from the golden")
    return out
