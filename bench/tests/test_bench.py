"""Self-tests of the benchmark harness, on a cheap subset of its jobs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import llab.fusion  # noqa: E402
import llab.permgroup  # noqa: E402
from goldens import Goldens, mismatches, summarize  # noqa: E402
from harness import run_pass  # noqa: E402
from tracer import Tracer, installed_wrappers, metric_names, metric_unit  # noqa: E402
from workloads import WORKLOADS, job_groups, job_id, write_inputs  # noqa: E402

# (workload, job): one or two cheap jobs per command, one that exits 1
SUBSET = (
    ("catalog", ("classify", "s4", "2")),
    ("catalog", ("locality", "d8", "2")),
    ("growth", ("expand", "a4", "2")),
    ("growth", ("expand", "c6", "2")),
    ("verify", ("verify", "a4", "3")),
    ("verify", ("verify", "c6", "2")),
)
JOBS = [job for _, job in SUBSET]


def _run(tmp: Path, seed: int, tracer: Tracer | None = None):
    paths = write_inputs(job_groups(JOBS), seed, tmp / f"inputs-{seed}")
    if tracer is None:
        return run_pass(JOBS, paths, tmp / "out")
    tracer.install()
    try:
        return run_pass(JOBS, paths, tmp / "traced", before_job=tracer.start_job)
    finally:
        tracer.uninstall()


def test_subset_jobs_are_benchmark_jobs():
    for workload, job in SUBSET:
        assert job in WORKLOADS[workload]


def test_traced_reports_equal_untraced_and_counts_repeat(tmp_path):
    plain = _run(tmp_path, 0)
    first, second = Tracer(), Tracer()
    traced = _run(tmp_path, 0, first)
    assert installed_wrappers() == []
    again = _run(tmp_path, 0, second)
    assert installed_wrappers() == []
    for a, b, c in zip(plain, traced, again):
        assert (a.code, a.report) == (b.code, b.report) == (c.code, c.report)
    counts = {k: v for k, v in first.counts.items()
              if k.endswith((".calls", ".builds", ".distinct", ".words", ".noop"))}
    assert counts == {k: second.counts[k] for k in counts}
    assert counts["permgroup.FiniteGroup.mult.calls"] > 0
    assert counts["checks.context.towers.calls"] == 2  # once per verify job


def test_wrappers_reach_copied_bindings():
    original = llab.permgroup.mask_members
    assert llab.fusion.mask_members is original
    tracer = Tracer()
    tracer.install()
    try:
        assert llab.fusion.mask_members is llab.permgroup.mask_members
        assert llab.fusion.mask_members is not original
        assert installed_wrappers()
    finally:
        tracer.uninstall()
    assert llab.fusion.mask_members is original
    assert installed_wrappers() == []


def test_missing_target_reads_as_zero(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "SPANNED",
                        tracer_module.SPANNED + (("partial", "no_such_function"),))
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["partial.no_such_function"]
    assert installed_wrappers() == []


def test_span_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    _run(tmp_path, 0, tracer)
    spans = tracer.spans
    assert all(s is not None for s in spans)
    child_time = [0.0] * len(spans)
    for s in spans:
        assert s[4] <= s[5]
        if s[1] >= 0:
            parent = spans[s[1]]
            assert parent[4] <= s[4] and s[5] <= parent[5]
            assert parent[2] == s[2]  # one job id per span tree
            child_time[s[1]] += s[5] - s[4]
    total_self = sum(s[5] - s[4] - child_time[s[0]] for s in spans)
    assert total_self == pytest.approx(sum(tracer.self_time.values()), rel=1e-6)


def test_summary_agrees_across_seeds(tmp_path):
    goldens = {w: Goldens(w) for w in WORKLOADS}
    for seed in (0, 1, 2, 7):
        for (workload, _), r in zip(SUBSET, _run(tmp_path, seed)):
            want = goldens[workload].index["jobs"][r.job]["summary"]
            got = summarize(r.code, r.report)
            assert {f: got.get(f) for f in want} == want, (seed, r.job)
            if seed:
                assert goldens[workload].check(r.job, seed, r.code, r.report) == []


def test_altered_golden_byte_is_a_failure():
    goldens = Goldens("catalog")
    name = job_id(("classify", "s4", "2"))
    entry = goldens.index["jobs"][name]
    golden = goldens.report(name)
    assert mismatches(entry, golden, entry["code"], golden) == []
    for pos in (0, len(golden) // 2, len(golden) - 1):
        altered = golden[:pos] + bytes([golden[pos] ^ 1]) + golden[pos + 1:]
        assert mismatches(entry, altered, entry["code"], golden)
    assert mismatches(entry, golden, entry["code"] + 1, golden)


def test_altered_summary_is_a_failure():
    goldens = Goldens("growth")
    name = job_id(("expand", "a4", "2"))
    report = json.loads(goldens.report(name))
    report["elements_after"] += 1
    altered = json.dumps(report).encode()
    assert goldens.check(name, 3, 0, altered)
    assert goldens.check(name, 3, 1, None)


def test_benchmark_json_matches_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == metric_names()
    assert all(m["unit"] == metric_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
