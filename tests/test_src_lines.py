"""The code-line count of `tests/src_lines.py`."""

import textwrap

from src_lines import SRC, code_lines, main

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment
    import os  # a trailing comment counts as code


    class A:
        """Class docstring."""

        def f(self):
            """Function docstring."""
            text = """not a docstring:

            its lines count, but not the blank one"""
            return text
''')


def test_code_lines_of_a_snippet():
    # import, class, def, the two non-blank lines of the string and return
    assert code_lines(SNIPPET) == 6


def test_total_is_the_sum_over_modules(capsys):
    total = main()
    rows = [r.split() for r in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == str(total) and rows[-1][2] == "total"
    for column in (0, 1):
        assert sum(int(r[column]) for r in rows[:-1]) == int(rows[-1][column])
    assert len(rows) - 1 == len(list(SRC.glob("*.py")))


def test_lines_count_as_wc_does(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1")  # no final newline: wc -l reads 0
    assert main(tmp_path) == 7
    rows = [r.split() for r in capsys.readouterr().out.splitlines()]
    assert rows == [["6", "16", "a.py"], ["1", "0", "b.py"], ["7", "16", "total"]]
