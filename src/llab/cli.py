"""Batch front door: classify subgroups, build localities, grow object
families, and run the verification suites, from group files on disk.

Output goes to stdout as aligned text; --json additionally writes a
machine report with sorted keys, so identical inputs give identical bytes.
Exit codes: 0 success, 1 bad input, 2 cap exceeded, 3 a guaranteed
property failed (or a verify tag did).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import caps
from .checks import run_tags
from .errors import CapExceeded, InputError, PropertyViolation
from .expansion import check_unique_iso, full_expand
from .fusion import fusion_from_group
from .locality import (
    is_proper,
    locality_from_group,
    resolve_delta_spec,
    theta_quotient,
)
from .partial import check_axioms
from .permgroup import group_from_generators, is_prime

DELTA_SPECS = ("cr-closure", "c", "q", "s", "all-nontrivial", "all")


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, not the cap-exceeded exit code
    def error(self, message):
        raise InputError(message)


def load_group(path: str):
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read group file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"group file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"group file {path!r} must hold an object")
    degree = raw.get("degree")
    gens = raw.get("generators")
    if type(degree) is not int or degree < 1:  # not bool, an int subclass
        raise InputError("group file needs a positive integer 'degree'")
    # refused before group_from_generators allocates its identity permutation
    limit = caps.current().degree
    if degree > limit:
        raise CapExceeded("permutation degree", limit)
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise InputError("group file needs 'generators' as a list of image lists")
    return group_from_generators(degree, gens)


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise InputError(f"p must be a prime, got {p}")
    return p


def _sub_json(P) -> dict:
    gens = P.gens_str()
    return {"order": P.order, "generators": gens if gens else "()"}


def _sub_text(P) -> str:
    gens = P.gens_str()
    return f"order {P.order}: <{gens if gens else '()'}>"


def _mark(flag: bool) -> str:
    return "x" if flag else "."


def _group_json(args, G) -> dict:
    return {"file": args.group, "order": G.order, "degree": G.degree}


def _axioms(args, L, lines: list, payload: dict) -> int:
    """The optional --axiom-len sweep over L; returns the exit code."""
    if not args.axiom_len:
        return 0
    rep = check_axioms(L, max_len=args.axiom_len)
    lines.append(f"axioms (length {args.axiom_len}): {rep.summary()}")
    payload["axioms"] = {"ok": rep.ok, "checked_words": rep.checked_words}
    return 0 if rep.ok else 3


def cmd_classify(args) -> tuple[list, dict, int]:
    G = load_group(args.group)
    F = fusion_from_group(G, args.p)
    cs = F.class_sets()
    rows = []
    for P in F.subs:
        flags = F.classify(P)
        rows.append((P, flags))

    lines = [
        f"group {args.group}: order {G.order}, degree {G.degree}, "
        f"p={args.p}, S of order {F.S.order}",
        f"classification of the {len(F.subs)} subgroups of S:",
        f"  {'order':>5}  {'c':>1} {'r':>1} {'q':>1} {'s':>1} {'fn':>2} {'fc':>2}  generators",
    ]
    for P, f in rows:
        gens = P.gens_str() or "()"
        lines.append(
            f"  {P.order:>5}  {_mark(f.centric)} {_mark(f.radical)} "
            f"{_mark(f.quasicentric)} {_mark(f.subcentric)} "
            f"{_mark(f.fully_normalized):>2} {_mark(f.fully_centralized):>2}  <{gens}>"
        )
    lines.append(
        "families: "
        + " ".join(f"{k}={len(cs[k])}" for k in ("cr", "c", "q", "s"))
    )
    for k in ("cr", "c", "q", "s"):
        lines.append(f"  {k}: " + "; ".join(_sub_text(P) for P in cs[k]))

    payload = {
        "command": "classify",
        "group": _group_json(args, G),
        "p": args.p,
        "sylow_order": F.S.order,
        "subgroups": [
            {
                **_sub_json(P),
                "centric": f.centric,
                "radical": f.radical,
                "quasicentric": f.quasicentric,
                "subcentric": f.subcentric,
                "fully_normalized": f.fully_normalized,
                "fully_centralized": f.fully_centralized,
            }
            for P, f in rows
        ],
        "families": {k: [_sub_json(P) for P in cs[k]] for k in ("cr", "c", "q", "s")},
    }
    return lines, payload, 0


def cmd_locality(args) -> tuple[list, dict, int]:
    G = load_group(args.group)
    F = fusion_from_group(G, args.p)
    L = locality_from_group(G, args.p, resolve_delta_spec(F, args.delta))
    prop = is_proper(L)

    lines = [
        f"locality over delta {args.delta!r}: {len(L.elements)} elements, "
        f"{len(L.delta.members)} objects, S of order {L.S.order}",
        "objects: " + "; ".join(_sub_text(P) for P in L.delta.members),
        f"properness: {prop.summary()}",
    ]
    payload = {
        "command": "locality",
        "group": _group_json(args, G),
        "p": args.p,
        "delta": args.delta,
        "elements": len(L.elements),
        "objects": [_sub_json(P) for P in L.delta.members],
        "proper": prop.ok,
    }

    try:
        theta, quotient = theta_quotient(L)
    except InputError:
        lines.append("theta quotient: not applicable for this object family")
        payload["theta"] = None
    else:
        qprop = is_proper(quotient)
        lines.append(
            f"theta quotient: kernel order {theta.order}, "
            f"quotient of {len(quotient.elements)} elements, {qprop.summary()}"
        )
        payload["theta"] = {
            "kernel_order": theta.order,
            "quotient_elements": len(quotient.elements),
            "quotient_proper": qprop.ok,
        }
    code = _axioms(args, L, lines, payload)
    return lines, payload, code


def cmd_expand(args) -> tuple[list, dict, int]:
    G = load_group(args.group)
    F = fusion_from_group(G, args.p)
    L = locality_from_group(G, args.p, resolve_delta_spec(F, args.delta))
    target = resolve_delta_spec(F, args.delta_plus)
    fe = full_expand(L, target)
    Lp = fe.locality

    oracle = locality_from_group(G, args.p, target)
    iso = check_unique_iso(Lp, oracle, base=L)

    lines = [
        f"growth {args.delta!r} -> {args.delta_plus!r}: {len(fe.steps)} steps",
    ]
    for i, step in enumerate(fe.steps, 1):
        tr = step.trace
        lines.append(
            f"  step {i}: seed order {tr['r_order']}, class size {tr['r_class_size']}, "
            f"{tr['sim_classes']} triple classes, {tr['pure']} adjoined"
        )
    lines.append(
        f"elements {len(L.elements)} -> {len(Lp.elements)} "
        f"({len(Lp.elements) - len(L.elements)} new), "
        f"objects {len(L.delta.members)} -> {len(Lp.delta.members)}"
    )
    lines.append(
        "oracle comparison: "
        + (
            "identified with the direct construction"
            if iso is not None
            else f"distinct from the direct construction "
            f"({len(oracle.elements)} elements there)"
        )
    )
    payload = {
        "command": "expand",
        "group": _group_json(args, G),
        "p": args.p,
        "delta": args.delta,
        "delta_plus": args.delta_plus,
        "steps": fe.trace(),
        "elements_before": len(L.elements),
        "elements_after": len(Lp.elements),
        "new_elements": len(Lp.elements) - len(L.elements),
        "objects_before": len(L.delta.members),
        "objects_after": len(Lp.delta.members),
        "oracle_elements": len(oracle.elements),
        "iso_to_oracle": iso is not None,
    }
    code = _axioms(args, Lp, lines, payload)
    return lines, payload, code


def cmd_verify(args) -> tuple[list, dict, int]:
    G = load_group(args.group)
    results = run_tags(G, args.p)
    lines = [f"verification suite for {args.group} at p={args.p}"]
    for tag, res in results.items():
        lines.append(f"  {tag:<6} {'pass' if res['ok'] else 'FAIL'}  {res['detail']}")
    passed = sum(1 for r in results.values() if r["ok"])
    failed = len(results) - passed
    lines.append(f"{passed} passed, {failed} failed")
    payload = {
        "command": "verify",
        "group": _group_json(args, G),
        "p": args.p,
        "tags": results,
        "ok": failed == 0,
    }
    return lines, payload, 0 if failed == 0 else 3


COMMANDS = {
    "classify": cmd_classify,
    "locality": cmd_locality,
    "expand": cmd_expand,
    "verify": cmd_verify,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="llab", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--group", required=True, help="JSON group file")
    parser.add_argument("--p", type=int, required=True, help="the prime")
    parser.add_argument(
        "--delta", default="cr-closure", choices=DELTA_SPECS,
        help="object family for locality/expand",
    )
    parser.add_argument(
        "--delta-plus", default="s", choices=DELTA_SPECS,
        help="target object family for expand",
    )
    parser.add_argument(
        "--axiom-len", type=int, default=0,
        help="also run the word-axiom suite up to this length",
    )
    parser.add_argument("--json", default=None, help="write a JSON report here")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_prime(args.p)
        lines, payload, code = COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print(f"property violation (library bug signal): {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness!r}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        try:
            Path(args.json).write_text(text)
        except OSError as exc:
            print(f"error: cannot write report {args.json!r}: {exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
