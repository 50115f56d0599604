"""Print a digest of each CLI run's outcome, so two checkouts compare by diff.

One line per run: a digest of the run's exit code, stdout, stderr and
`--json` report, then the run's argv.  By default the runs are the 84
built-in ones: classify, locality, expand and verify on the 7 groups of
`src/llab/data` at p = 2, 3 and 5.  With `--stdin`, each non-blank line of
stdin adds one more run, written as its argv without `--json`.  Every run
starts in the checkout root, and the built-in group paths are relative to
it, so the reports' "file" fields agree between checkouts.  Runs are in
process; `digest(argv, in_process=False)` runs one through `python3 -m
llab.cli` instead, and gives the same digest.

    python3 tests/report_digests.py > before.txt        # one checkout
    python3 tests/report_digests.py > after.txt         # the other
    diff before.txt after.txt
    echo "verify --group g.json --p 2" | python3 tests/report_digests.py --stdin
"""

import argparse
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from llab import cli  # noqa: E402

COMMANDS = ("classify", "locality", "expand", "verify")
PRIMES = ("2", "3", "5")


def builtin_runs() -> list:
    """The 84 built-in runs, group paths relative to the checkout root."""
    groups = sorted(p.stem for p in (ROOT / "src" / "llab" / "data").glob("*.json"))
    return [(cmd, "--group", f"src/llab/data/{g}.json", "--p", p)
            for g in groups for p in PRIMES for cmd in COMMANDS]


def _run(argv, report: Path, in_process: bool) -> tuple:
    argv = [*argv, "--json", str(report)]
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "llab.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def digest(argv, in_process: bool = True) -> str:
    """Hex digest of one run's exit code, stdout, stderr and report bytes."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            report = Path(tmp) / "report.json"
            code, out, err = _run(argv, report, in_process)
            body = report.read_bytes() if report.exists() else None
    finally:
        os.chdir(cwd)
    return hashlib.sha256(repr((code, out, err, body)).encode()).hexdigest()[:20]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--stdin", action="store_true",
                        help="also run each argv line read from stdin")
    args = parser.parse_args(argv)
    runs = builtin_runs()
    if args.stdin:
        runs += [tuple(shlex.split(line)) for line in sys.stdin if line.strip()]
    for run in runs:
        print(digest(run), shlex.join(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
