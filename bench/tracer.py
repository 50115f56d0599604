"""Outside-in tracer: wraps llab's public functions from the benchmark process.

Nothing in ``src/`` knows about it. ``install`` replaces each target with a
wrapper, both where it is defined and in every ``llab`` module that copied
the binding through ``from .x import name``; ``uninstall`` puts every
original back. Hot primitives only count their calls. Everything else also
records a span (id, parent id, job index, name, start, end); a layer's self
time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from functools import cached_property
from pathlib import Path

# hot primitives: calls counted, no span
COUNTED = (
    ("permgroup", "FiniteGroup.mult"),
    ("permgroup", "mask_members"),
    ("permgroup", "FiniteGroup.close_mask"),
    ("locality", "Locality.in_domain"),
    ("locality", "Locality.s_word_mask"),
    ("locality", "Locality.s_g_mask"),
    ("locality", "Locality.fusion"),
)

# layer entry points: calls and self time
SPANNED = (
    ("permgroup", "group_from_generators"),
    ("permgroup", "sylow_p"),
    ("permgroup", "subgroups_below"),
    ("permgroup", "is_characteristic_p"),
    ("fusion", "fusion_from_group"),
    ("fusion", "FusionSystem.classify"),
    ("fusion", "FusionSystem.class_sets"),
    ("fusion", "FusionSystem.normalizer_system"),
    ("fusion", "FusionSystem.centralizer_system"),
    ("fusion", "FusionSystem.is_inductive"),
    ("fusion", "FusionSystem.is_cr_generated"),
    ("fusion", "quotient_fusion_check"),
    ("locality", "locality_from_group"),
    ("locality", "is_proper"),
    ("locality", "restrict"),
    ("locality", "theta_quotient"),
    ("locality", "quotient_locality"),
    ("locality", "normalizer_in"),
    ("locality", "centralizer_in"),
    ("partial", "check_axioms"),
    ("partial", "all_partial_normal_subgroups"),
    ("partial", "normal_closure"),
    ("partial", "generated_subgroup"),
    ("partial", "is_partial_normal"),
    ("partial", "coset_partition"),
    ("partial", "PGHom.verify"),
    ("expansion", "elementary_expand"),
    ("expansion", "check_seed"),
    ("expansion", "full_expand"),
    ("expansion", "check_unique_iso"),
    ("expansion", "lift_normal"),
    ("expansion", "expand_quotient"),
    ("cli", "load_group"),
)

# classes whose constructions are counted and timed as "<Class>.builds/.self_s"
CONSTRUCTED = (("fusion", "FusionSystem"), ("locality", "Locality"))

CONTEXT_PROPERTIES = ("F", "proper_localities", "cr_locality", "base", "growth",
                      "base_normals", "towers")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{m}.{t}.calls" for m, t in COUNTED]
    for m, t in SPANNED:
        names += [f"{m}.{t}.calls", f"{m}.{t}.self_s"]
    for m, c in CONSTRUCTED:
        names += [f"{m}.{c}.builds", f"{m}.{c}.self_s"]
    names += [
        "fusion.FusionSystem.distinct",
        "fusion.FusionSystem.reuse_ratio",
        "partial.check_axioms.words",
        "expansion.elementary_expand.noop",
        "checks.context_s",
        "checks.tags_s",
        "trace.overhead_ratio",
    ]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("reuse_ratio", "overhead_ratio")):
        return "ratio"
    return "count"


def _llab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "llab" or n.startswith("llab."))]


class Tracer:
    """Spans and counts of one traced pass; install, run jobs, uninstall."""

    def __init__(self):
        self._cells: defaultdict = defaultdict(lambda: [0])  # name -> [count]
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent, job, name, start, end)
        self.jobs: list[str] = []
        self._stack: list[list] = []  # [id, child seconds]
        self._restore: list[tuple] = []  # (namespace, attribute, original)
        self._reps: dict = {}
        self.fusion_by_job: dict[str, list[int]] = {}  # job -> [builds, distinct]
        # targets a later llab no longer has: their metrics read 0
        self.missing: list[str] = []

    # -- spans -----------------------------------------------------------------

    def start_job(self, name: str) -> None:
        """Spans recorded from now on belong to this job."""
        self.jobs.append(name)
        self._reps = {}  # distinct fusion systems are counted per job
        self.fusion_by_job[name] = [0, 0]

    def _span(self, name: str, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)  # reserve the id; filled in on exit
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.self_time[name] += dur - frame[1]
            self._cells[name + ".calls"][0] += 1
            self.spans[span_id] = (span_id, parent, len(self.jobs) - 1, name, start, end)

    # -- wrappers --------------------------------------------------------------

    def _counting(self, name: str, fn):
        # a list cell, not a Counter: this runs millions of times per pass
        cell = self._cells[name + ".calls"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper._bench_wrapper = True
        return wrapper

    def _spanning(self, name: str, fn, after=None):
        span = self._span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = span(name, fn, *args, **kwargs)
            if after is not None:
                after(out, *args)
            return out

        wrapper._bench_wrapper = True
        return wrapper

    def _after_fusion_build(self, _none, system, *args) -> None:
        """Count distinct systems per (group, S) with the public same_homs."""
        per_job = self.fusion_by_job[self.jobs[-1]]
        per_job[0] += 1
        reps = self._reps.setdefault((id(system.group), system.S.mask), [])
        if not any(rep.same_homs(system) for rep in reps):
            reps.append(system)  # keeps the group alive, so its id stays unique
            self._cells["fusion.FusionSystem.distinct"][0] += 1
            per_job[1] += 1

    def _after_check_axioms(self, report, *args) -> None:
        self._cells["partial.check_axioms.words"][0] += report.checked_words

    def _after_elementary_expand(self, expansion, *args) -> None:
        if expansion.trace.get("noop"):
            self._cells["expansion.elementary_expand.noop"][0] += 1

    def _set(self, namespace, attr: str, value) -> None:
        if isinstance(namespace, dict):
            self._restore.append((namespace, attr, namespace[attr]))
            namespace[attr] = value
        else:
            self._restore.append((namespace, attr, namespace.__dict__[attr]))
            setattr(namespace, attr, value)

    def _replace(self, module: str, target: str, make) -> None:
        mod = sys.modules[f"llab.{module}"]
        owner, _, attr = target.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or attr not in vars(holder):
            self.missing.append(f"{module}.{target}")
            return
        if owner:  # a method: the class object is shared by every importer
            self._set(holder, attr, make(f"{module}.{target}", vars(holder)[attr]))
            return
        original = getattr(mod, attr)
        wrapper = make(f"{module}.{target}", original)
        for m in _llab_modules():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._set(m, key, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        from llab import checks, cli  # noqa: F401  (cli imports every layer)

        afters = {
            "check_axioms": self._after_check_axioms,
            "elementary_expand": self._after_elementary_expand,
        }
        for module, target in COUNTED:
            self._replace(module, target, self._counting)
        for module, target in SPANNED:
            after = afters.get(target)
            self._replace(module, target,
                          lambda n, f, after=after: self._spanning(n, f, after))
        for module, cls_name in CONSTRUCTED:
            after = self._after_fusion_build if cls_name == "FusionSystem" else None
            self._replace(module, f"{cls_name}.__init__",
                          lambda n, f, after=after: self._spanning(n[: -len(".__init__")], f, after))
        ctx = checks.ExampleContext
        for prop in CONTEXT_PROPERTIES:
            if prop not in vars(ctx):
                self.missing.append(f"checks.ExampleContext.{prop}")
                continue
            wrapped = cached_property(self._spanning(f"checks.context.{prop}",
                                                     ctx.__dict__[prop].func))
            wrapped.__set_name__(ctx, prop)
            self._set(ctx, prop, wrapped)
        for tag, fn in list(checks.TAGS.items()):
            self._set(checks.TAGS, tag, self._spanning(f"checks.tag.{tag}", fn))

    def uninstall(self) -> None:
        while self._restore:
            namespace, attr, original = self._restore.pop()
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)
        self._reps = {}

    # -- results ---------------------------------------------------------------

    @property
    def counts(self) -> dict:
        return {name: cell[0] for name, cell in sorted(self._cells.items())}

    def _context_and_tag_seconds(self) -> tuple[float, dict]:
        """Time inside context builds, and each tag's time outside them."""
        spans = self.spans
        is_ctx = [s[3].startswith("checks.context.") for s in spans]
        context_s = 0.0
        ctx_under_tag: defaultdict = defaultdict(float)
        for s in spans:
            if not is_ctx[s[0]] or (s[1] >= 0 and is_ctx[s[1]]):
                continue
            dur = s[5] - s[4]
            context_s += dur
            anc = s[1]
            while anc >= 0 and not spans[anc][3].startswith("checks.tag."):
                anc = spans[anc][1]
            if anc >= 0:
                ctx_under_tag[anc] += dur
        tag_own: defaultdict = defaultdict(float)
        for s in spans:
            if s[3].startswith("checks.tag."):
                tag_own[s[3]] += (s[5] - s[4]) - ctx_under_tag[s[0]]
        return context_s, dict(tag_own)

    def metrics(self, overhead_ratio: float) -> dict:
        counts = self.counts
        context_s, tag_own = self._context_and_tag_seconds()
        builds = counts.get("fusion.FusionSystem.calls", 0)
        values = {}
        for name in metric_names():
            if name.endswith(".builds"):
                value = counts.get(name[: -len(".builds")] + ".calls", 0)
            elif name.endswith(".self_s"):
                value = self.self_time.get(name[: -len(".self_s")], 0.0)
            elif name == "fusion.FusionSystem.reuse_ratio":
                value = counts.get("fusion.FusionSystem.distinct", 0) / builds if builds else 1.0
            elif name == "checks.context_s":
                value = context_s
            elif name == "checks.tags_s":
                value = sum(tag_own.values())
            elif name == "trace.overhead_ratio":
                value = overhead_ratio
            else:
                value = counts.get(name, 0)
            values[name] = {"value": value, "unit": metric_unit(name)}
        return values

    def write(self, path: Path) -> None:
        """Spans, counts and per-tag times, for reading where the time went."""
        context_s, tag_own = self._context_and_tag_seconds()
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            "jobs": self.jobs,
            "span_fields": ["id", "parent", "job", "name", "start_s", "end_s"],
            "spans": self.spans,
            "counts": self.counts,
            "self_s": dict(sorted(self.self_time.items())),
            "fusion_builds_distinct_by_job": self.fusion_by_job,
            "missing_targets": self.missing,
            "checks": {"context_s": context_s, "tag_s_outside_context": tag_own},
        }
        path.write_text(json.dumps(data, separators=(",", ":")) + "\n")


def installed_wrappers() -> list[str]:
    """Every tracer wrapper still reachable from an llab module or class."""
    found = []
    for mod in _llab_modules():
        for key, value in vars(mod).items():
            if getattr(value, "_bench_wrapper", False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    inner = getattr(member, "func", member)
                    if getattr(inner, "_bench_wrapper", False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
        if mod.__name__ == "llab.checks":
            found += [f"llab.checks.TAGS[{t}]" for t, fn in mod.TAGS.items()
                      if getattr(fn, "_bench_wrapper", False)]
    return found
