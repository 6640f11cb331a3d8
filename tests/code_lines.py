"""Code lines of the package: lines that hold a token outside comments and
docstrings.

    python3 tests/code_lines.py            # src/halphen
    python3 tests/code_lines.py PATH ...   # other files or directories

A line counts when some token of the module other than a comment, a
docstring or layout (newlines, indentation) starts on it, ends on it or
spans it.  A docstring is the string expression that opens a module,
class or function body, found with `ast`.  Prints one row per module and
the total, next to the plain line counts.  Standard library only; pytest
does not collect this file.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """(code lines, lines) of one Python file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip), len(text.splitlines())


def main(argv):
    paths = [Path(a) for a in argv] or [ROOT / "src" / "halphen"]
    files = sorted(f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p]))
    total_code = total_lines = 0
    for f in files:
        code, lines = code_lines(f)
        total_code += code
        total_lines += lines
        print(f"{f.stem:<16} {code:>6} {lines:>6}")
    print(f"{'total':<16} {total_code:>6} {total_lines:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
