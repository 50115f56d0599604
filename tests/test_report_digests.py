"""The run digests of `tests/report_digests.py` are stable and mode-free."""

import shlex

from llab import cli

import report_digests

S3 = ("--group", "src/llab/data/s3.json", "--p", "3")


def test_the_default_runs_are_the_84_built_in_ones():
    runs = report_digests.builtin_runs()
    assert len(set(runs)) == 84
    assert ("verify", "--group", "src/llab/data/s5.json", "--p", "2") in runs


def test_the_built_in_runs_give_the_recorded_digests():
    # a change that alters a report on purpose regenerates the record:
    #   python3 tests/report_digests.py > tests/report_digests.txt
    recorded = (report_digests.ROOT / "tests" / "report_digests.txt").read_text()
    got = [f"{report_digests.digest(run)} {shlex.join(run)}"
           for run in report_digests.builtin_runs()]
    assert got == recorded.splitlines()


def test_two_calls_give_the_same_digests():
    runs = [("classify", *S3), ("verify", *S3), ("expand", *S3[:3], "7")]
    first = [report_digests.digest(run) for run in runs]
    assert first == [report_digests.digest(run) for run in runs]
    # exit codes 0, 0 and 1 (expand s3/7 has no proper locality): distinct
    assert len(set(first)) == 3


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once per process: calls with other options, and a
    # usage error between them, give what fresh interpreters give
    assert cli.build_parser() is cli.build_parser()
    runs = [("locality", *S3, "--delta", "q"), ("classify", "--p", "3"),
            ("locality", *S3)]
    assert ([report_digests.digest(run) for run in runs]
            == [report_digests.digest(run, in_process=False) for run in runs])
    assert cli.main(["locality", *S3, "--axiom-len", "2"]) == 0
    assert cli.main(["classify", "--p", "3"]) == 1
    assert "the following arguments are required: --group" in capsys.readouterr().err


def test_in_process_digest_equals_the_subprocess_one():
    run = ("locality", *S3)
    assert report_digests.digest(run) == report_digests.digest(run, in_process=False)


def test_every_frontier_run_parses_and_loads_its_group():
    # the runs themselves take about 6 s in process, so they are not run here:
    #   python3 tests/report_digests.py --stdin < tests/frontier/runs.txt
    lines = (report_digests.ROOT / "tests" / "frontier" / "runs.txt").read_text().splitlines()
    runs = [shlex.split(line) for line in lines if line.strip()]
    assert len(runs) == 53
    parser = cli.build_parser()
    for run in runs:
        args = parser.parse_args(run)
        assert cli.load_group(str(report_digests.ROOT / args.group)).order > 1
