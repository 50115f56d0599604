"""The run digests of `tests/report_digests.py` are stable and mode-free."""

import report_digests

S3 = ("--group", "src/llab/data/s3.json", "--p", "3")


def test_the_default_runs_are_the_84_built_in_ones():
    runs = report_digests.builtin_runs()
    assert len(set(runs)) == 84
    assert ("verify", "--group", "src/llab/data/s5.json", "--p", "2") in runs


def test_two_calls_give_the_same_digests():
    runs = [("classify", *S3), ("verify", *S3), ("expand", *S3[:3], "7")]
    first = [report_digests.digest(run) for run in runs]
    assert first == [report_digests.digest(run) for run in runs]
    # exit codes 0, 0 and 1 (expand s3/7 has no proper locality): distinct
    assert len(set(first)) == 3


def test_in_process_digest_equals_the_subprocess_one():
    run = ("locality", *S3)
    assert report_digests.digest(run) == report_digests.digest(run, in_process=False)
