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
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split() == [str(total), "total"]
    assert sum(int(r.split()[0]) for r in rows[:-1]) == total
    assert len(rows) - 1 == len(list(SRC.glob("*.py")))
