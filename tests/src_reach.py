"""Print how many CLI runs enter each function and method defined in `src/llab`.

One line per def, in module and line order: the number of runs that enter
it, then `module.py:line` and its qualified name.  A def no run enters
prints 0.  The runs are the 84 built-in ones of `tests/report_digests.py`;
with `--stdin`, each non-blank line of stdin adds one more run, written as
its argv without `--json`.  Runs are in process, one after another, under a
call-level `sys.settrace` hook that returns None (no line events).  A def
behind a process-wide cache, such as `cli.build_parser`, counts only the
runs that miss the cache.

    python3 tests/src_reach.py
    python3 tests/src_reach.py --stdin < tests/frontier/runs.txt
"""

import argparse
import ast
import shlex
import sys
from pathlib import Path

import report_digests

SRC = report_digests.ROOT / "src" / "llab"


def src_defs() -> dict:
    """(file, first line) -> "module.py:line qualname" for every def in
    `src/llab`; the first line is the first decorator's, as in the code
    object's `co_firstlineno`."""
    out = {}

    def walk(path, body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(path, node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                qualname = prefix + node.name
                out[(str(path), first)] = f"{path.name}:{node.lineno} {qualname}"
                walk(path, node.body, f"{qualname}.<locals>.")
            elif hasattr(node, "body"):
                # defs under if / try / with / for at the same nesting level
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(path, getattr(node, field, []), prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(path, ast.parse(path.read_text()).body, "")
    return out


def reach(runs) -> dict:
    """"module.py:line qualname" of each def -> the number of the runs that
    enter it."""
    defs = src_defs()
    counts = dict.fromkeys(defs.values(), 0)
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    old = sys.gettrace()
    for run in runs:
        entered.clear()
        sys.settrace(tracer)
        try:
            report_digests.digest(run)
        finally:
            sys.settrace(old)
        for code in {(c.co_filename, c.co_firstlineno) for c in entered}:
            if code in defs:
                counts[defs[code]] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stdin", action="store_true",
                        help="also run each argv line read from stdin")
    args = parser.parse_args(argv)
    runs = report_digests.builtin_runs()
    if args.stdin:
        runs += [tuple(shlex.split(line)) for line in sys.stdin if line.strip()]
    for label, n in reach(runs).items():
        print(f"{n:5d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
