"""The per-def run counts of `tests/src_reach.py`."""

import ast

from src_reach import SRC, reach

S3_2 = ("classify", "--group", "src/llab/data/s3.json", "--p", "2")


def test_one_classify_run():
    counts = reach([S3_2])
    defs = sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text())))
    # every def once, each under its own "module.py:line qualname" label
    assert len(counts) == defs
    by_name = {label.split()[1]: n for label, n in counts.items()}
    assert by_name["cmd_classify"] == 1
    assert by_name["cmd_verify"] == 0
    assert set(counts.values()) == {0, 1}
