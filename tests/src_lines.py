"""Print the code lines and the lines of each `src/llab` module, and their
totals.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).  Lines
are counted as `wc -l` counts them, by newline characters.  Run from
anywhere:

    python3 tests/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "llab"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if lines[n - 1].strip())
    return len(code - docstrings)


def main(root: Path = SRC) -> int:
    """Print a row of code lines and lines per module, then their totals;
    return the code-line total."""
    total = lines = 0
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        n, m = code_lines(source), source.count("\n")
        total += n
        lines += m
        print(f"{n:6d} {m:6d}  {path.name}")
    print(f"{total:6d} {lines:6d}  total")
    return total


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else SRC)
