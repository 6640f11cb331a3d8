"""The functions of `src/halphen` that `verify all` never calls may only shrink.

One `verify all --no-timing` run in a child under cProfile records every
function it entered.  Each function or method defined in `src/halphen`
and missing from that record must be named in `off_path_functions.txt`,
one `module:qualified.name` a line, and every name there must be defined
and missing from the record: the list is exactly the functions the run
never enters.  Code that moves onto the ledger's path, or out of `src/`,
leaves the list; nothing new joins it.
"""

import ast
import os
import pstats
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "halphen"
LISTED = Path(__file__).with_name("off_path_functions.txt")


def defined_functions():
    """{(file, first line): "module:qualified.name"} for every def in src.

    The first line is the code object's: the first decorator's line when
    there is one, as cProfile reports it.
    """
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), line] = f"{path.stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def test_off_path_functions_only_shrink(tmp_path):
    stats_file = tmp_path / "verify_all.prof"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "cProfile", "-o", str(stats_file),
                    "-m", "halphen", "verify", "all", "--no-timing"],
                   cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, check=True)
    called = {(f, line) for f, line, _ in pstats.Stats(str(stats_file)).stats}
    defined = defined_functions()
    never = {name for key, name in defined.items() if key not in called}
    listed = set(LISTED.read_text().split())
    assert sorted(never - listed) == []
    assert sorted(listed - never) == []
